package campaign

import "testing"

// TestPointAggMerge checks that PointAgg.Merge folds every member.
func TestPointAggMerge(t *testing.T) {
	var a, b PointAgg
	a.Trials, a.Connected = 3, 1
	a.Lambs.Add(2)
	a.LambHist.Add(2)
	a.Faults.Add(4)
	a.Recovery.Add(0.001)
	b.Trials, b.Connected = 2, 2
	b.Lambs.Add(0)
	b.LambHist.Add(0)
	b.Faults.Add(1)
	b.Recovery.Add(0.002)
	a.Merge(&b)
	if a.Trials != 5 || a.Connected != 3 {
		t.Fatalf("counts wrong after merge: %+v", a)
	}
	if a.Lambs.N != 2 || a.LambHist.Count != 2 || a.Faults.N != 2 || a.Recovery.N != 2 {
		t.Fatalf("accumulators not merged: %+v", a)
	}
	a.reset()
	if a != (PointAgg{}) {
		t.Fatalf("reset left state: %+v", a)
	}
}
