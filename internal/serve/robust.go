package serve

// robust.go is the server's crash-safety and graceful-degradation layer:
// build-spec sidecars and startup recovery (a killed server re-enqueues
// and resumes its interrupted builds), and the estimate fallback chain
// that answers degraded instead of 404 when the requested model is not
// cached.

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"hdpower/internal/atomicio"
	"hdpower/internal/core"
)

// checkpointPath is where a build checkpoints its characterization state.
func (s *Server) checkpointPath(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+".ckpt.json")
}

// ledgerPath is where a fleet build keeps its coordinator ledger.
func (s *Server) ledgerPath(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+".fleet.json")
}

// hasLedger reports whether a fleet build of id left a ledger behind.
func (s *Server) hasLedger(id string) bool {
	if s.cfg.CheckpointDir == "" {
		return false
	}
	_, err := os.Stat(s.ledgerPath(id))
	return err == nil
}

// specPath is the build-spec sidecar recording an accepted build for
// restart recovery.
func (s *Server) specPath(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+".spec.json")
}

// writeBuildSpec records an accepted build durably, so a server killed
// before the build settles re-enqueues it on the next start. Failures
// are logged and tolerated: the build itself proceeds regardless.
func (s *Server) writeBuildSpec(ent *buildEntry) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	if err := atomicio.WriteJSON(s.specPath(ent.id), ent.spec); err != nil {
		s.log.Warn("build spec not recorded; restart will not recover this build",
			"id", ent.id, "err", err)
	}
}

// clearBuildSpec removes the sidecar once a build settles (either way):
// only builds lost to a crash are recovered.
func (s *Server) clearBuildSpec(id string) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	_ = os.Remove(s.specPath(id))
}

// recoverBuilds re-enqueues the builds an earlier process accepted but
// never settled — the *.spec.json sidecars left in the checkpoint
// directory. Each recovered build resumes from its checkpoint (if one
// survived) through the normal build path. Corrupted sidecars are
// quarantined and skipped; a full queue drops the recovery (the sidecar
// stays for the next restart).
func (s *Server) recoverBuilds() {
	if s.cfg.CheckpointDir == "" {
		return
	}
	paths, err := filepath.Glob(filepath.Join(s.cfg.CheckpointDir, "*.spec.json"))
	if err != nil {
		return
	}
	for _, path := range paths {
		var spec BuildSpec
		rerr := atomicio.ReadJSON(path, &spec)
		if rerr != nil && !errors.Is(rerr, atomicio.ErrNoChecksum) {
			s.log.Warn("unreadable build spec; skipping recovery", "path", path, "err", rerr)
			continue
		}
		if nerr := spec.normalize(); nerr != nil {
			s.log.Warn("recorded build spec no longer valid; dropping",
				"path", path, "err", nerr)
			_ = os.Remove(path)
			continue
		}
		ent, started := s.cache.begin(spec)
		if !started {
			continue
		}
		s.buildWG.Add(1)
		select {
		case s.queue <- ent:
			s.met.queueDepth.Add(1)
			s.met.buildsRecovered.Inc()
			s.log.Info("recovered interrupted build", "id", ent.id, "key", ent.key)
		default:
			s.buildWG.Done()
			s.cache.abandon(ent)
			s.log.Warn("build queue full; interrupted build left for next restart",
				"id", ent.id)
		}
	}
}

// Degradation rungs reported in estimate responses and the
// hdserve_estimate_degraded_total metric's fallback label.
const (
	fallbackSeed       = "seed"       // cached model, same module/width, different seed
	fallbackLibrary    = "library"    // instance model from the durable library
	fallbackRegression = "regression" // synthesized from the library's width regression
)

// resolveError is a model-resolution failure with the HTTP status it
// should map to: 400 for a bad spec, 404 for a missing model. The stream
// endpoint renders it as a per-line error instead of a status code.
type resolveError struct {
	code int
	msg  string
}

func (e *resolveError) Error() string { return e.msg }

// lookupModel resolves the model answering an estimate for spec: the
// exact cached model when available, otherwise the first rung of the
// degradation chain that can serve the request. The returned fallback
// string is empty for an exact answer. It performs all the metric
// accounting (per call — the stream endpoint calls it per line, so
// degraded batch items count item by item like unary requests).
func (s *Server) lookupModel(spec *BuildSpec) (*core.Model, string, *resolveError) {
	if err := spec.normalize(); err != nil {
		return nil, "", &resolveError{code: http.StatusBadRequest,
			msg: fmt.Sprintf("model spec: %v", err)}
	}
	if model, ok := s.cache.ready(spec.Key()); ok {
		s.met.cacheHits.Inc()
		return model, "", nil
	}
	// Degradation chain: trade fidelity for availability, most faithful
	// rung first. Characterization is deterministic per seed, so a
	// different-seed sibling differs only by sampling noise; a library
	// model survived a previous process; a regression synthesis is the
	// paper's parameterizable fallback for uncharacterized widths.
	if model, ok := s.cache.readySibling(spec.Module, spec.Width); ok {
		s.met.estimateDegraded(fallbackSeed).Inc()
		return model, fallbackSeed, nil
	}
	if s.lib != nil {
		if model, err := s.lib.GetModel(spec.Module, spec.Width, false); err == nil {
			s.met.estimateDegraded(fallbackLibrary).Inc()
			return model, fallbackLibrary, nil
		} else if atomicio.IsCorrupt(err) {
			s.log.Warn("library model corrupt; quarantined", "key", spec.Key(), "err", err)
		}
		if pm, err := s.lib.GetParam(spec.Module); err == nil {
			s.met.estimateDegraded(fallbackRegression).Inc()
			return pm.Synthesize(spec.Width), fallbackRegression, nil
		}
	}
	return nil, "", &resolveError{code: http.StatusNotFound,
		msg: fmt.Sprintf("model %s not built and no fallback available; POST /v1/models/build first", spec.Key())}
}

// resolveModel is lookupModel for the unary handlers: on failure the HTTP
// error has already been written.
func (s *Server) resolveModel(w http.ResponseWriter, spec *BuildSpec) (*core.Model, string, bool) {
	model, fallback, rerr := s.lookupModel(spec)
	if rerr != nil {
		writeError(w, rerr.code, "%s", rerr.msg)
		return nil, "", false
	}
	return model, fallback, true
}
