package aid

import "aid/internal/core"

// MemoTables returns how many distinct predicate tables the
// observations in s's memo are drawn over; missed runs have none.
func MemoTables(s *SharedScheduler) int {
	tables := map[*core.PredTable]bool{}
	for _, me := range s.sched.ExportMemo() {
		for _, o := range me.Obs {
			if t := o.Observed.Table(); t != nil {
				tables[t] = true
			}
		}
	}
	return len(tables)
}
