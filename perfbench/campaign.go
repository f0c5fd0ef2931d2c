package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"lambmesh/internal/campaign"
	"lambmesh/internal/par"
)

const (
	campaignSeeds  = 16 // seeds the repeated campaigns rotate through
	campaignSetups = 5  // set-ups per run; setup_s is their median
	// campaignRefSeed is the seed of the set-up's warm-up campaign, whose
	// digest is recorded below.
	campaignRefSeed = 1
	// campaignRefDigest is the digest of the warm-up campaign's
	// deterministic aggregates. A change that alters campaign results
	// changes it; record the new value only once the change is known right.
	campaignRefDigest = 0x5cd09b09062e24a9
)

// campaignSpec is the campaign workload's fixed grid: {16x16, 32x32} x
// {node, mixed}, each failure site failing with probability 3% over the
// mission (exponential lifetimes), k=2, two workers.
func campaignSpec(seed int64) campaign.Spec {
	return campaign.Spec{
		Meshes:    [][]int{{16, 16}, {32, 32}},
		Models:    []campaign.Model{campaign.ModelNode, campaign.ModelMixed},
		Procs:     []campaign.ProcSpec{{Proc: campaign.ProcMTBF, Mission: -math.Log(1 - 0.03), Theta: 1}},
		K:         2,
		Trials:    16,
		ShardSize: 4,
		Seed:      seed,
		Workers:   loadConns,
	}
}

// campaignDigest hashes every aggregate of r that is a function of the
// spec alone: all but the measured recovery wall times.
func campaignDigest(r *campaign.Result) uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	put(uint64(r.TrialsRun))
	for _, p := range r.Points {
		a := &p.Agg
		put(uint64(a.Trials), uint64(a.Connected),
			uint64(a.Lambs.N), math.Float64bits(a.Lambs.Mean),
			uint64(a.Faults.N), math.Float64bits(a.Faults.Mean),
			uint64(a.LambHist.Zero), uint64(a.LambHist.Count))
		for _, b := range a.LambHist.Bins {
			put(uint64(b))
		}
	}
	return h.Sum64()
}

// checkCampaign compares a campaign's digest with the recorded one.
func checkCampaign(r *campaign.Result, want uint64) error {
	if !r.Complete {
		return fmt.Errorf("campaign stopped early after %d trials", r.TrialsRun)
	}
	if got := campaignDigest(r); got != want {
		return fmt.Errorf("campaign digest %#x, recorded %#x", got, want)
	}
	return nil
}

// campaignBusy is the share of the run's worker time spent in trial
// solves, from the engine's own per-trial recovery times.
func campaignBusy(r *campaign.Result, wall time.Duration) float64 {
	var busy float64
	for _, p := range r.Points {
		busy += p.Agg.Recovery.Mean * float64(p.Agg.Recovery.N)
	}
	return busy / (float64(loadConns) * wall.Seconds())
}

func runCampaign(o runOpts) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{lat: &hist{}, layer: map[string]float64{}}
	for i := 0; i < campaignSetups; i++ {
		start := time.Now()
		if _, err := campaign.NewTrialRunner(campaignSpec(o.seed)); err != nil {
			return nil, err
		}
		ref, err := campaign.Run(ctx, campaignSpec(campaignRefSeed), campaign.Opts{})
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(start))
		out.attempted++
		if err := checkCampaign(ref, campaignRefDigest); err != nil {
			out.failed++
			fmt.Fprintln(logw, "campaign: warm-up:", err)
		}
	}

	var buf spanBuf
	defer o.tr.collect(&buf)
	digests := map[int]uint64{}
	var busy []float64
	runtime.GC()
	gc0 := readGC()
	start := time.Now()
	deadline := start.Add(o.dur)
	for i := 0; time.Now().Before(deadline); i++ {
		c := i % campaignSeeds
		spec := campaignSpec(par.TrialSeed(o.seed, streamCampaign, c))
		out.attempted++
		var s0 int64
		if o.tr != nil {
			s0 = o.tr.now()
		}
		t0 := time.Now()
		r, err := campaign.Run(ctx, spec, campaign.Opts{})
		lat := time.Since(t0)
		if o.tr != nil {
			buf.add(span{name: "campaign.run", id: o.tr.newID(), start: s0, end: o.tr.now()})
		}
		if err != nil {
			out.failed++
			fmt.Fprintln(logw, "campaign:", err)
			continue
		}
		want, seen := digests[c]
		if !seen {
			want = campaignDigest(r)
			digests[c] = want
		}
		if err := checkCampaign(r, want); err != nil {
			out.failed++
			fmt.Fprintln(logw, "campaign:", err)
			continue
		}
		out.lat.add(lat)
		out.work++
		busy = append(busy, campaignBusy(r, lat))
	}
	out.wall = time.Since(start)
	gc1 := readGC()
	out.gc = gcSnap{cycles: gc1.cycles - gc0.cycles, pause: gc1.pause - gc0.pause}
	out.heapMiB = liveHeapMiB()
	out.layer["campaign.busy_share"] = mean(busy)
	return out, nil
}
