package collector

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pathprof/internal/agg"
	"pathprof/internal/cct"
	"pathprof/internal/experiments"
	"pathprof/internal/instrument"
	"pathprof/internal/profile"
	"pathprof/internal/wire"
	"pathprof/internal/workload"
)

// The reference read path: each shard's aggregate is copied out as a
// sorted profile.Profile / cct.Export, and the copies are chained through
// profile.Merge / cct.MergeExports in shard order, stopping at the first
// merge error. The collector's reads fold shard aggregates with the
// ingest fold instead; on conflict-free input both must agree byte for
// byte.

func refMergeProfiles(aggs []*agg.Profile) *profile.Profile {
	out := aggs[0].Materialize()
	for _, a := range aggs[1:] {
		if err := out.Merge(a.Materialize()); err != nil {
			break
		}
	}
	return out
}

func refMergeExports(aggs []*agg.CCT) *cct.Export {
	out := aggs[0].Snapshot()
	for _, a := range aggs[1:] {
		merged, err := cct.MergeExports(out, a.Snapshot())
		if err != nil {
			break
		}
		out = merged
	}
	return out
}

// refMerged runs the reference read path over every program c holds.
func refMerged(c *Collector) (map[string]*profile.Profile, map[string]*cct.Export) {
	profParts := map[string][]*agg.Profile{}
	exportParts := map[string][]*agg.CCT{}
	for _, sh := range c.shards {
		sh.mu.Lock()
		for name, a := range sh.Profiles {
			profParts[name] = append(profParts[name], a)
		}
		for name, a := range sh.CCTs {
			exportParts[name] = append(exportParts[name], a)
		}
		sh.mu.Unlock()
	}
	profs := map[string]*profile.Profile{}
	for name, parts := range profParts {
		profs[name] = refMergeProfiles(parts)
	}
	exports := map[string]*cct.Export{}
	for name, parts := range exportParts {
		exports[name] = refMergeExports(parts)
	}
	return profs, exports
}

// profileFrame and exportFrame encode one envelope as a version-3 frame:
// sorted path rows, metrics, sizes, slots and backedges all show in the
// bytes.
func profileFrame(t *testing.T, p *profile.Profile) []byte {
	t.Helper()
	bw := wire.NewBatchWriter()
	if err := bw.AddProfile(p); err != nil {
		t.Fatal(err)
	}
	return bw.Frame()
}

func exportFrame(t testing.TB, ex *cct.Export) []byte {
	t.Helper()
	bw := wire.NewBatchWriter()
	if err := bw.AddExport(ex); err != nil {
		t.Fatal(err)
	}
	return bw.Frame()
}

// mergeInput is one program's source data for the random pushes.
type mergeInput struct {
	prof *profile.Profile // nil: the program pushes no profiles
	tree *cct.Tree        // nil: the program pushes no CCTs
	name string
}

var (
	mergeInputsOnce sync.Once
	mergeInputsList []mergeInput
	mergeInputsErr  error
)

// mergeInputs returns the programs the equivalence test pushes: compiler
// (whose test-scale CCT has backedges and same-procedure siblings, so
// merges resolve recursion edges and pair children by position) and
// compress, each as a profile and a CCT, plus a k=2 profile and a profile
// with no events.
func mergeInputs(t *testing.T) []mergeInput {
	t.Helper()
	mergeInputsOnce.Do(func() {
		ev0, ev1 := experiments.StandardEvents[0], experiments.StandardEvents[1]
		classic := experiments.NewSession(workload.Test)
		k2 := experiments.NewSession(workload.Test)
		k2.K = 2
		run := func(s *experiments.Session, name string, mode instrument.Mode) *experiments.Cell {
			w, ok := workload.ByName(name)
			if !ok {
				panic("no workload " + name)
			}
			cell, err := s.Run(w, mode, ev0, ev1)
			if err != nil && mergeInputsErr == nil {
				mergeInputsErr = err
			}
			return cell
		}
		var list []mergeInput
		for _, name := range []string{"compiler", "compress"} {
			prof := run(classic, name, instrument.ModePathHW)
			tree := run(classic, name, instrument.ModeContextFlow)
			if mergeInputsErr != nil {
				return
			}
			list = append(list, mergeInput{prof: prof.Profile, tree: tree.Tree, name: name})
		}
		kprof := run(k2, "compiler", instrument.ModePathHW)
		if mergeInputsErr != nil {
			return
		}
		list = append(list, mergeInput{prof: kprof.Profile, name: "compiler-k2"})
		bare := cloneProfile(list[0].prof)
		bare.Events = nil
		for _, pp := range bare.Procs {
			for j := range pp.Entries {
				pp.Entries[j].Metrics = nil
			}
		}
		list = append(list, mergeInput{prof: bare, name: "compiler-noevents"})
		mergeInputsList = list
	})
	if mergeInputsErr != nil {
		t.Fatal(mergeInputsErr)
	}
	return mergeInputsList
}

// varyProfile derives one push from p: each row survives with
// probability 3/4 and its counts are perturbed, so shards hold different
// row sets and merges append rows the first shard never saw.
func varyProfile(rng *rand.Rand, p *profile.Profile, name string) *profile.Profile {
	q := cloneProfile(p)
	q.Program = name
	for _, pp := range q.Procs {
		kept := pp.Entries[:0]
		for _, e := range pp.Entries {
			if rng.Intn(4) == 0 {
				continue
			}
			e.Freq += uint64(rng.Intn(50))
			for k := range e.Metrics {
				e.Metrics[k] += uint64(rng.Intn(1000))
			}
			kept = append(kept, e)
		}
		pp.Entries = kept
	}
	return q
}

// varyExport derives one push from tree: random subtrees and backedges
// are dropped, counts and slot prefixes perturbed, and now and then the
// push carries no structure, so merges graft subtrees, union backedges
// and fold slot states.
func varyExport(rng *rand.Rand, tree *cct.Tree, name string) *cct.Export {
	ex := tree.Export(name)
	if rng.Intn(8) == 0 {
		ex.HasStructure = false
	}
	var walk func(n *cct.ExportedNode)
	walk = func(n *cct.ExportedNode) {
		kept := n.Children[:0]
		for _, ch := range n.Children {
			if rng.Intn(6) == 0 {
				continue
			}
			kept = append(kept, ch)
		}
		n.Children = kept
		backs := n.Backedges[:0]
		for _, to := range n.Backedges {
			if rng.Intn(4) == 0 {
				continue
			}
			backs = append(backs, to)
		}
		n.Backedges = backs
		for k := range n.Metrics {
			n.Metrics[k] += int64(rng.Intn(1000))
		}
		if n.ID != 0 && rng.Intn(3) == 0 {
			n.PathCounts.Add(int64(rng.Intn(8)), int64(1+rng.Intn(9)))
		}
		for k := range n.Slots {
			if n.Slots[k].PathState == 1 && rng.Intn(5) == 0 {
				n.Slots[k].PathPrefix++
			}
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(ex.Root)
	return ex
}

// pushRandom folds the given number of pushes drawn from inputs into c,
// one to four envelopes per frame, spread over the shards round-robin.
func pushRandom(t *testing.T, c *Collector, rng *rand.Rand, inputs []mergeInput, pushes int) {
	t.Helper()
	bw := wire.NewBatchWriter()
	for i := 0; i < pushes; {
		bw.Reset()
		for n := 1 + rng.Intn(4); n > 0 && i < pushes; n-- {
			in := inputs[rng.Intn(len(inputs))]
			var err error
			if in.tree != nil && (in.prof == nil || rng.Intn(2) == 0) {
				err = bw.AddExport(varyExport(rng, in.tree, in.name))
			} else {
				err = bw.AddProfile(varyProfile(rng, in.prof, in.name))
			}
			if err != nil {
				t.Fatal(err)
			}
			i++
		}
		if _, _, err := c.IngestFrame(bw.Frame()); err != nil {
			t.Fatal(err)
		}
	}
}

func sameExport(t *testing.T, what string, got, want *cct.Export) {
	t.Helper()
	if !bytes.Equal(exportFrame(t, got), exportFrame(t, want)) {
		t.Errorf("%s: CCT encodes differently from the reference merge", what)
	}
	if got.Stats() != want.Stats() {
		t.Errorf("%s: CCT stats %+v, reference %+v", what, got.Stats(), want.Stats())
	}
}

// TestMergedReadsMatchReference: MergedProfile, MergedExport and Take
// fold shard aggregates with the ingest fold and build the result once;
// over seeded random pushes at 1-5 shards they must agree byte for byte
// with the reference read path.
func TestMergedReadsMatchReference(t *testing.T) {
	inputs := mergeInputs(t)
	backedges, dupSiblings := 0, false
	for _, n := range inputs[0].tree.Export("compiler").Nodes {
		backedges += len(n.Backedges)
		seen := map[int]bool{}
		for _, ch := range n.Children {
			dupSiblings = dupSiblings || seen[ch.Proc]
			seen[ch.Proc] = true
		}
	}
	if backedges == 0 || !dupSiblings {
		t.Fatalf("compiler CCT has %d backedges, same-procedure siblings %v; the test needs both", backedges, dupSiblings)
	}
	t.Logf("compiler CCT: %d backedges, same-procedure siblings", backedges)

	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		shards := 1 + (seed-1)%5
		c := New(Config{Shards: shards})
		pushRandom(t, c, rng, inputs, 10+rng.Intn(30))
		wantProfs, wantExports := refMerged(c)

		for name, want := range wantProfs {
			got, ok := c.MergedProfile(name)
			if !ok {
				t.Fatalf("seed %d: no merged profile of %s", seed, name)
			}
			if !bytes.Equal(profileFrame(t, got), profileFrame(t, want)) {
				t.Errorf("seed %d shards %d: MergedProfile(%s) differs from the reference merge", seed, shards, name)
			}
		}
		for name, want := range wantExports {
			got, ok := c.MergedExport(name)
			if !ok {
				t.Fatalf("seed %d: no merged CCT of %s", seed, name)
			}
			sameExport(t, fmt.Sprintf("seed %d shards %d: MergedExport(%s)", seed, shards, name), got, want)
		}

		profs, exports := c.Take()
		if len(profs) != len(wantProfs) || len(exports) != len(wantExports) {
			t.Fatalf("seed %d: Take returned %d profiles and %d CCTs, want %d and %d",
				seed, len(profs), len(exports), len(wantProfs), len(wantExports))
		}
		for _, got := range profs {
			if !bytes.Equal(profileFrame(t, got), profileFrame(t, wantProfs[got.Program])) {
				t.Errorf("seed %d shards %d: Take's %s profile differs from the reference merge", seed, shards, got.Program)
			}
		}
		for _, got := range exports {
			sameExport(t, fmt.Sprintf("seed %d shards %d: Take's %s", seed, shards, got.Program), got, wantExports[got.Program])
		}
		if len(c.Programs()) != 0 {
			t.Fatalf("seed %d: Take left %v behind", seed, c.Programs())
		}
	}
}

// pushTo folds p, as a one-item frame, into shard i of c (the
// round-robin cursor is steered so the next pick lands there).
func pushTo(t *testing.T, c *Collector, i int, p *profile.Profile) {
	t.Helper()
	c.next.Store(uint64(i + len(c.shards) - 1))
	if _, _, err := c.IngestFrame(profileFrame(t, p)); err != nil {
		t.Fatalf("push to shard %d: %v", i, err)
	}
}

// checkConflictRule pushes a into shard 0 and the conflicting b into
// shard 1 of a 2-shard collector. Each shard accepts its push, having no
// aggregate to conflict with; every cross-shard read must then return a
// alone: the shard failing the ingest's shape check against the merge so
// far contributes nothing.
func checkConflictRule(t *testing.T, a, b *profile.Profile) {
	t.Helper()
	alone := New(Config{Shards: 1})
	pushTo(t, alone, 0, a)
	wantP, _ := alone.MergedProfile(a.Program)
	want := profileFrame(t, wantP)

	c := New(Config{Shards: 2})
	pushTo(t, c, 0, a)
	pushTo(t, c, 1, b)
	got, ok := c.MergedProfile(a.Program)
	if !ok || !bytes.Equal(profileFrame(t, got), want) {
		t.Errorf("MergedProfile folded the conflicting shard")
	}
	snap, err := c.SnapshotFrame()
	if err != nil {
		t.Fatal(err)
	}
	f, err := wire.ParseFrame(snap)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := f.ProfileAt(0)
	if err != nil || f.Items() != 1 || !bytes.Equal(profileFrame(t, sp), want) {
		t.Errorf("SnapshotFrame folded the conflicting shard (err %v)", err)
	}
	profs, _ := c.Take()
	if len(profs) != 1 || !bytes.Equal(profileFrame(t, profs[0]), want) {
		t.Errorf("Take folded the conflicting shard")
	}
}

func TestCrossShardModeConflict(t *testing.T) {
	prof, _ := fixtures(t)
	other := cloneProfile(prof)
	other.Mode = "context+hw"
	checkConflictRule(t, prof, other)
}

func TestCrossShardSchemaConflict(t *testing.T) {
	prof, _ := fixtures(t)
	other := cloneProfile(prof)
	other.Events = []string{"cycles", "branches"}
	checkConflictRule(t, prof, other)
}

func TestCrossShardProcIDConflict(t *testing.T) {
	prof, _ := fixtures(t)
	if len(prof.Procs) < 2 {
		t.Fatal("fixture needs two procedures")
	}
	other := cloneProfile(prof)
	other.Procs[len(other.Procs)-1].ProcID += 100
	checkConflictRule(t, prof, other)
}

// TestMergedReadAllocsFlat: with the same pushes in every shard, a read
// allocates as much at 8 shards as at 1 (one more allowed for the pooled
// scratch) — read cost no longer multiplies with the shard count.
func TestMergedReadAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful without it")
	}
	prof, tree := fixtures(t)
	ex := tree.Export(prof.Program)
	allocs := func(shards int) (profAllocs, cctAllocs float64) {
		c := New(Config{Shards: shards})
		for _, add := range []func(*wire.BatchWriter) error{
			func(bw *wire.BatchWriter) error { return bw.AddProfile(prof) },
			func(bw *wire.BatchWriter) error { return bw.AddExport(ex) },
		} {
			bw := wire.NewBatchWriter()
			for i := 0; i < shards; i++ {
				if err := add(bw); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := c.IngestFrame(bw.Frame()); err != nil {
				t.Fatal(err)
			}
		}
		for _, sh := range c.shards {
			if sh.Profiles[prof.Program] == nil || sh.CCTs[prof.Program] == nil {
				t.Fatal("preload missed a shard")
			}
		}
		for i := 0; i < 3; i++ { // warm the scratch pool
			c.MergedExport(prof.Program)
		}
		profAllocs = testing.AllocsPerRun(50, func() { c.MergedProfile(prof.Program) })
		cctAllocs = testing.AllocsPerRun(50, func() { c.MergedExport(prof.Program) })
		return profAllocs, cctAllocs
	}
	p1, x1 := allocs(1)
	p8, x8 := allocs(8)
	t.Logf("allocs per read at 1 and 8 shards: MergedProfile %.0f, %.0f; MergedExport %.0f, %.0f", p1, p8, x1, x8)
	if p8 > p1+1 {
		t.Errorf("MergedProfile allocates %.0f objects at 8 shards, %.0f at 1", p8, p1)
	}
	if x8 > x1+1 {
		t.Errorf("MergedExport allocates %.0f objects at 8 shards, %.0f at 1", x8, x1)
	}
}
