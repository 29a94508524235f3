package retry

import (
	"math"
	"testing"
	"time"
)

func TestBackoffWithinCeiling(t *testing.T) {
	cases := []struct{ base, ceiling time.Duration }{
		{250 * time.Millisecond, 5 * time.Second},
		{time.Millisecond, 100 * time.Millisecond},
		{time.Second, time.Millisecond}, // base above the ceiling
		{0, 0},
		{math.MaxInt64 / 3, math.MaxInt64},
	}
	for _, c := range cases {
		ceiling := max(c.ceiling, 1)
		floor := min(time.Millisecond, ceiling)
		for _, attempt := range []int{0, 1, 36, 63, 64, 1000} {
			for i := 0; i < 100; i++ {
				d := Backoff(c.base, c.ceiling, attempt)
				if d < floor || d > ceiling {
					t.Fatalf("Backoff(%v, %v, %d) = %v, want in [%v, %v]",
						c.base, c.ceiling, attempt, d, floor, ceiling)
				}
			}
		}
	}
}

func TestBackoffGrowsToCeiling(t *testing.T) {
	const base, ceiling = time.Millisecond, 64 * time.Millisecond
	// Attempt 0 stays within the base (plus the 1ms floor); a late attempt
	// spreads over the whole capped window.
	late := time.Duration(0)
	for i := 0; i < 1000; i++ {
		if d := Backoff(base, ceiling, 0); d > base+time.Millisecond {
			t.Fatalf("attempt 0 delay %v above base %v plus the floor", d, base)
		}
		late = max(late, Backoff(base, ceiling, 10))
	}
	if late <= ceiling/2 {
		t.Fatalf("attempt 10 never drew above %v (max %v)", ceiling/2, late)
	}
}
