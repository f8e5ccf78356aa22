package sched

// This file lifts the §III-F placement policy out of the concrete socket
// scheduler so both levels of the system share one rule. Locally, the
// Runtime homes tile-rows on socket teams round-robin and dispatch refolds the
// queues of degraded teams onto healthy ones; one level up, the cluster
// coordinator (internal/cluster) homes catalog tile-rows on worker nodes —
// its RemoteTeams — and reroutes the queues of dead workers onto the
// survivors. Keeping the placement arithmetic here means the distributed
// layer provably mirrors the local one, and a placement change (e.g. a
// future locality-aware hash) lands in both at once.

// OwnerRoundRobin returns the home owning item i under round-robin
// placement across n homes — HomeOfTileRow generalized to an abstract home
// axis. n must be positive.
func OwnerRoundRobin(i, n int) int { return i % n }

// PlaceRoundRobin distributes items 0..n-1 round-robin across homes,
// skipping homes for which alive reports false: an item whose owner is
// down lands on the next alive home after it in ring order, which is
// exactly how Runtime.dispatch refolds a degraded team's queue. The second
// return is false when no home is alive (the caller's cue to degrade to
// local execution); a nil alive means every home is up.
func PlaceRoundRobin(n, homes int, alive func(int) bool) ([][]int32, bool) {
	if homes <= 0 {
		return nil, false
	}
	up := make([]bool, homes)
	anyUp := false
	for h := 0; h < homes; h++ {
		up[h] = alive == nil || alive(h)
		anyUp = anyUp || up[h]
	}
	if !anyUp {
		return nil, false
	}
	queues := make([][]int32, homes)
	for i := 0; i < n; i++ {
		h := OwnerRoundRobin(i, homes)
		for !up[h] {
			h = (h + 1) % homes
		}
		queues[h] = append(queues[h], int32(i))
	}
	return queues, true
}
