package transport

import "amrt/internal/sim"

// GrantAges ring-buffers (time, granted) pairs a receiver records at
// each recovery check, so the recovery scan can tell which holes were
// authorized long enough ago to declare lost — without timestamping
// every grant. The zero value is empty.
type GrantAges struct {
	snaps [8]grantSnapshot
	head  int
}

type grantSnapshot struct {
	at      sim.Time
	granted int32
	valid   bool
}

// Record notes that granted packets were authorized as of now.
func (g *GrantAges) Record(now sim.Time, granted int32) {
	g.snaps[g.head] = grantSnapshot{at: now, granted: granted, valid: true}
	g.head = (g.head + 1) % len(g.snaps)
}

// Before returns the granted count at the newest record no later than
// cutoff (0 if none is old enough).
func (g *GrantAges) Before(cutoff sim.Time) int32 {
	best := int32(0)
	bestAt := sim.Time(-1)
	for _, s := range g.snaps {
		if s.valid && s.at <= cutoff && s.at > bestAt {
			best, bestAt = s.granted, s.at
		}
	}
	return best
}

// Backoff returns the next silence backoff of a recovery timer: b
// doubled (starting from base), capped once it reaches 64×RTT. Timers
// stretch their check interval this way while a peer stays silent, so a
// permanently silent peer costs a trickle of events instead of a
// per-RTT scan forever.
func (k *Kernel) Backoff(b, base sim.Time) sim.Time {
	if b >= 64*k.Cfg.RTT {
		return b
	}
	if b == 0 {
		b = base
	}
	return 2 * b
}

// Without removes every occurrence of x from s in place and returns the
// shortened slice, keeping the order of the rest.
func Without[T comparable](s []T, x T) []T {
	keep := s[:0]
	for _, v := range s {
		if v != x {
			keep = append(keep, v)
		}
	}
	return keep
}
