package aid

import "aid/internal/core"

// StagedMemoTables returns how many distinct predicate tables the
// observations staged in s (imported, not yet bound to a run) are drawn
// over; missed runs have none.
func StagedMemoTables(s *SharedScheduler) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	tables := map[*core.PredTable]bool{}
	for _, me := range s.pending {
		for _, o := range me.Obs {
			if t := o.Observed.Table(); t != nil {
				tables[t] = true
			}
		}
	}
	return len(tables)
}
