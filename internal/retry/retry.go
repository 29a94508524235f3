// Package retry holds the one backoff formula shared by every retry loop
// in the repository: fleet worker RPCs, hdserve build retries and the
// hdload client.
package retry

import (
	"math/rand"
	"time"
)

// Backoff returns the delay before retry attempt n (0-based): capped
// exponential backoff with full jitter. The delay is drawn uniformly
// below min(base·2^attempt, ceiling), plus one millisecond so that no
// retry fires at once, and never exceeds the ceiling. Doubling stops at
// the ceiling, so no attempt count can overflow the delay. Jitter keeps
// clients that failed together from retrying at the same instant. A
// non-positive base or ceiling counts as one nanosecond.
func Backoff(base, ceiling time.Duration, attempt int) time.Duration {
	ceiling = max(ceiling, 1)
	limit := min(max(base, 1), ceiling)
	for i := 0; i < attempt && limit < ceiling; i++ {
		if limit > ceiling/2 {
			limit = ceiling
		} else {
			limit *= 2
		}
	}
	return min(time.Duration(rand.Int63n(int64(limit)))+time.Millisecond, ceiling)
}
