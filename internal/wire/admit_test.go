package wire_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"testing"

	"taskalloc"
	"taskalloc/internal/demand"
	"taskalloc/internal/scenario"
	"taskalloc/internal/sweeprun"
	"taskalloc/internal/wire"
)

// frozenStep is a frozen snapshot's encoding with two change points;
// every call allocates its own slices, as a decoded document does.
func frozenStep(d int, horizon uint64) wire.Schedule {
	return wire.Schedule{Kind: "frozen", When: []uint64{0, 8}, Vectors: [][]int{{d}, {d + 5}}, Horizon: horizon}
}

// nestings wraps a schedule in each algebra operator, with the way back
// to it from the decoded operator.
var nestings = []struct {
	kind   string
	wrap   func(wire.Schedule) wire.Schedule
	unwrap func(demand.Schedule) demand.Schedule
}{
	{"modulate",
		func(in wire.Schedule) wire.Schedule {
			return wire.Schedule{Kind: "modulate", Inner: &in, Scale: []float64{2}}
		},
		func(s demand.Schedule) demand.Schedule { return s.(*scenario.Modulate).Inner }},
	{"compose",
		func(in wire.Schedule) wire.Schedule {
			return wire.Schedule{Kind: "compose", When: []uint64{0, 10},
				Parts: []wire.Schedule{{Kind: "static", Base: []int{20}}, in}}
		},
		func(s demand.Schedule) demand.Schedule { return s.(*scenario.Compose).Parts[1] }},
	{"superpose",
		func(in wire.Schedule) wire.Schedule {
			return wire.Schedule{Kind: "superpose", Parts: []wire.Schedule{in, {Kind: "static", Base: []int{20}}}}
		},
		func(s demand.Schedule) demand.Schedule { return s.(*scenario.Superpose).Parts[0] }},
	{"stablenoise",
		func(in wire.Schedule) wire.Schedule {
			return wire.Schedule{Kind: "stablenoise", Inner: &in, Alpha: 1.5, Sigma: 1, Every: 10, Seed: 3}
		},
		func(s demand.Schedule) demand.Schedule { return s.(*scenario.StableNoise).Inner }},
}

// TestToJobsSharesNestedFrozen: a 32-cell grid whose cells nest one
// frozen snapshot in an algebra operator decodes to one shared
// *scenario.Frozen, whichever operator nests it, not to one snapshot
// per cell.
func TestToJobsSharesNestedFrozen(t *testing.T) {
	for _, n := range nestings {
		t.Run(n.kind, func(t *testing.T) {
			sweep := wire.Sweep{Version: wire.V1}
			for i := 0; i < 32; i++ {
				sc := n.wrap(frozenStep(10, 1<<16))
				sweep.Jobs = append(sweep.Jobs, wire.Job{Rounds: 20,
					Config: wire.Config{Ants: 50, Seed: uint64(i + 1), Schedule: &sc}})
			}
			if _, err := wire.Admit(sweep, false); err != nil {
				t.Fatal(err)
			}
			jobs, err := wire.ToJobs(sweep)
			if err != nil {
				t.Fatal(err)
			}
			first, ok := n.unwrap(jobs[0].Config.Demand).(*scenario.Frozen)
			if !ok {
				t.Fatalf("cell 0 nests a %T, want *scenario.Frozen", n.unwrap(jobs[0].Config.Demand))
			}
			for i, j := range jobs {
				if got := n.unwrap(j.Config.Demand); got != demand.Schedule(first) {
					t.Fatalf("cell %d nests its own snapshot (%p), not cell 0's (%p)", i, got, first)
				}
			}
		})
	}
}

// TestDecodeSharesImmutableSchedules: cells that spell one trace, one
// frozen snapshot or one sinusoid decode (Grid.Decode) to one shared
// trace and one shared snapshot, but a sinusoid each, since it memoizes
// its path. Run at 2 workers, two cells of a kind at a time (under
// -race in CI), they give the reports and trajectories of cells decoded
// one by one, with instances of their own.
func TestDecodeSharesImmutableSchedules(t *testing.T) {
	encodings := []wire.Schedule{
		{Kind: "trace", When: []uint64{0, 40, 90}, Vectors: [][]int{{30, 50}, {60, 20}, {40, 40}}},
		{Kind: "frozen", When: []uint64{0, 60}, Vectors: [][]int{{50, 30}, {20, 60}}, Horizon: 1 << 12},
		{Kind: "sinusoid", Base: []int{40, 40}, Amp: []float64{0.5, 0.25}, Period: 50},
	}
	kind := func(i int) int { return i / 2 % 3 } // neighbors, which run together, share a kind
	sweep := wire.Sweep{Version: wire.V1}
	for i := 0; i < 12; i++ {
		sc := encodings[kind(i)] // each cell its own copy, as a decoded document has
		sweep.Jobs = append(sweep.Jobs, wire.Job{Rounds: 1000,
			Config: wire.Config{Ants: 200, Seed: uint64(i + 1), Shards: 1, Schedule: &sc}})
	}
	g, err := wire.Admit(sweep, false)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(sweep.Jobs))
	for i := range idx {
		idx[i] = i
	}
	shared := g.Decode(idx)
	for i := range shared {
		first := 2 * kind(i)
		got := shared[i].Config.Demand
		if want := kind(i) != 2; i != first && (got == shared[first].Config.Demand) != want {
			t.Fatalf("cell %d shares cell %d's %T: %v, want %v", i, first, got, !want, want)
		}
	}
	var fresh []sweeprun.Job
	for _, j := range sweep.Jobs {
		one, err := wire.ToJobs(wire.Sweep{Version: wire.V1, Jobs: []wire.Job{j}})
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, one...)
	}
	run := func(jobs []sweeprun.Job) []string {
		recs := make([]*wire.TrajectoryRecorder, len(jobs))
		for k := range jobs {
			rec := wire.NewTrajectoryRecorder(2)
			recs[k] = rec
			jobs[k].Observe = func(sim *taskalloc.Simulation) taskalloc.Observer { return rec.Observer(sim) }
		}
		var out []string
		for k, res := range sweeprun.Run(jobs, sweeprun.Options{Workers: 2}) {
			rep, err := json.Marshal(res.Report)
			if err != nil || res.Err != nil {
				t.Fatalf("cell %d: %v %v", k, err, res.Err)
			}
			out = append(out, string(rep)+"\n"+string(recs[k].Bytes()))
		}
		return out
	}
	got, want := run(shared), run(fresh)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d (%s) differs from its own decode:\n%.300s\n%.300s", i, encodings[kind(i)].Kind, got[i], want[i])
		}
	}
}

// TestNestedFrozenBudget: a grid whose distinct nested snapshots sum
// past wire.MaxFrozenHorizon is refused before the snapshot past the
// budget is built, by Admit and ToJobs alike, with the budget's 413
// naming the job that crossed it, whichever operator nests it.
func TestNestedFrozenBudget(t *testing.T) {
	for _, n := range nestings {
		t.Run(n.kind, func(t *testing.T) {
			small, large := n.wrap(frozenStep(10, 100)), n.wrap(frozenStep(20, wire.MaxFrozenHorizon))
			jobs := []wire.Job{
				{Rounds: 20, Config: wire.Config{Ants: 50, Schedule: &small}},
				{Rounds: 20, Config: wire.Config{Ants: 50, Schedule: &large}},
			}
			const want = "grid's distinct frozen horizons sum past 4194304 (job 1)"
			_, err := wire.Admit(wire.Sweep{Version: wire.V1, Jobs: jobs}, false)
			if err == nil || err.Error() != want || !errors.Is(err, wire.ErrAdmission) ||
				wire.DecodeStatus(err) != http.StatusRequestEntityTooLarge {
				t.Fatalf("Admit: %v (status %d), want 413 %q", err, wire.DecodeStatus(err), want)
			}
			if _, err := wire.ToJobs(wire.Sweep{Version: wire.V1, Jobs: jobs}); err == nil || err.Error() != want {
				t.Fatalf("ToJobs: %v, want %q", err, want)
			}
		})
	}
}

// TestAdmitDecodes: admission decodes every config. A grid whose job 2
// does not decode is an admission rejection, 400 with ToJobs's message;
// a bisect template that does not decode is rejected by AdmitBisect
// with the decoder's own message, naming no jobs array.
func TestAdmitDecodes(t *testing.T) {
	cell := wire.Job{Rounds: 10, Config: wire.Config{Ants: 10, Demands: []int{2}}}
	for _, tc := range []struct {
		name string
		mut  func(*wire.Config)
		want string
	}{
		{"algorithm", func(c *wire.Config) { c.Algorithm = "bogus" }, `wire: unknown algorithm "bogus"`},
		{"init", func(c *wire.Config) { c.Init = "bogus" }, `wire: unknown init kind "bogus"`},
		{"noise", func(c *wire.Config) { c.Noise = &wire.Noise{Kind: "bogus"} }, `wire: unknown noise kind "bogus"`},
		{"schedule", func(c *wire.Config) {
			c.Demands, c.Schedule = nil, &wire.Schedule{Kind: "bogus"}
		}, `wire: unknown schedule kind "bogus"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs := []wire.Job{cell, cell, cell, cell}
			tc.mut(&jobs[2].Config)
			_, err := wire.Admit(wire.Sweep{Jobs: jobs}, false)
			if want := "wire: jobs[2]: " + tc.want; err == nil || err.Error() != want ||
				!errors.Is(err, wire.ErrAdmission) || wire.DecodeStatus(err) != http.StatusBadRequest {
				t.Fatalf("Admit: %v (status %d), want 400 %q", err, wire.DecodeStatus(err), want)
			}
			if _, terr := wire.ToJobs(wire.Sweep{Jobs: jobs}); terr == nil || terr.Error() != err.Error() {
				t.Fatalf("ToJobs: %v; Admit said %v", terr, err)
			}
			req := wire.BisectRequest{Version: wire.V1, Job: jobs[2], GammaLo: 0.01, GammaHi: 0.05, TargetBand: 1}
			if _, _, err := wire.AdmitBisect(req); err == nil || err.Error() != tc.want ||
				!errors.Is(err, wire.ErrAdmission) || wire.DecodeStatus(err) != http.StatusBadRequest {
				t.Fatalf("AdmitBisect: %v (status %d), want 400 %q", err, wire.DecodeStatus(err), tc.want)
			}
		})
	}
}

// TestParseQuery: the query of POST /v1/sweeps and /v1/bisect, with a
// backend's messages; a bisect leaves ?format= unread.
func TestParseQuery(t *testing.T) {
	for _, tc := range []struct {
		query   string
		sweep   bool
		format  string
		workers int
		err     string
	}{
		{"", true, "ndjson", 0, ""},
		{"format=csv&workers=3", true, "csv", 3, ""},
		{"format=xml", true, "", 0, `unknown format "xml" (want ndjson or csv)`},
		{"format=xml", false, "xml", 0, ""},
		{"workers=abc", true, "", 0, `bad workers "abc"`},
		{"workers=0", false, "", 0, `bad workers "0"`},
	} {
		q, err := url.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		format, workers, err := wire.ParseQuery(q, tc.sweep)
		if msg := fmt.Sprint(err); (err != nil || tc.err != "") && msg != tc.err {
			t.Errorf("%q (sweep %v): error %v, want %q", tc.query, tc.sweep, err, tc.err)
		}
		if format != tc.format || workers != tc.workers {
			t.Errorf("%q (sweep %v): format %q workers %d, want %q and %d", tc.query, tc.sweep, format, workers, tc.format, tc.workers)
		}
	}
}
