package main

import (
	"repro/internal/core"
	"repro/internal/model"
)

// batchAnswers computes the q1, q2 and q2cc answers the server must serve
// after the acknowledged sets: the batch engines, which recompute from
// scratch, over the initial graph with every acknowledged set applied in
// stream order. Independent sets commute, and the hold rule orders every
// dependent pair as the stream does, so stream order yields the state the
// server committed whatever order it received them in. It also returns the
// acknowledged change count.
func batchAnswers(initial *model.Snapshot, sets []model.ChangeSet, acked []bool) (map[string]string, int, error) {
	s := initial.Clone()
	changes := 0
	for i := range sets {
		if acked[i] {
			s.Apply(&sets[i])
			changes += sets[i].Size()
		}
	}
	q1 := core.NewQ1Batch()
	if err := q1.Load(s); err != nil {
		return nil, 0, err
	}
	r1, err := q1.Initial()
	if err != nil {
		return nil, 0, err
	}
	q2 := core.NewQ2Batch()
	if err := q2.Load(s); err != nil {
		return nil, 0, err
	}
	r2, err := q2.Initial()
	if err != nil {
		return nil, 0, err
	}
	// The served CC engine answers the same query, so it must match the
	// same batch answer.
	return map[string]string{"q1": r1.String(), "q2": r2.String(), "q2cc": r2.String()}, changes, nil
}
