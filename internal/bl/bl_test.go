package bl

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"pathprof/internal/ir"
	"pathprof/internal/testgen"
)

// figure1Proc builds the CFG of Figure 1 of the paper: six paths
// A{B?}{C?}D{E?}F with edges A→B, A→C, B→C, B→D, C→D, D→E, D→F, E→F.
func figure1Proc(t *testing.T) *ir.Proc {
	t.Helper()
	b := ir.NewBuilder("fig1")
	p := b.NewProc("f", 0)
	A := p.NewBlock()
	B := p.NewBlock()
	C := p.NewBlock()
	D := p.NewBlock()
	E := p.NewBlock()
	F := p.NewBlock()
	A.Nop()
	A.Br(2, B, C)
	B.Nop()
	B.Br(2, C, D)
	C.Nop()
	C.Jmp(D)
	D.Nop()
	D.Br(2, E, F)
	E.Nop()
	E.Jmp(F)
	F.Ret()
	b.SetMain(p)
	return b.MustFinish().Procs[0]
}

func TestFigure1NumPaths(t *testing.T) {
	nm, err := New(figure1Proc(t))
	if err != nil {
		t.Fatal(err)
	}
	if nm.NumPaths != 6 {
		t.Fatalf("NumPaths = %d, want 6 (Figure 1)", nm.NumPaths)
	}
	if err := nm.CheckCompact(); err != nil {
		t.Fatal(err)
	}
	if len(nm.Backedges) != 0 {
		t.Fatalf("acyclic graph reported %d backedges", len(nm.Backedges))
	}
}

func TestFigure1PathsEnumerate(t *testing.T) {
	nm, err := New(figure1Proc(t))
	if err != nil {
		t.Fatal(err)
	}
	paths, err := nm.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	// The six paths of Figure 1(b), as block-ID sequences
	// (A=0 B=1 C=2 D=3 E=4 F=5).
	want := map[string]bool{
		"0 2 3 5":     true, // ACDF
		"0 2 3 4 5":   true, // ACDEF
		"0 1 2 3 5":   true, // ABCDF
		"0 1 2 3 4 5": true, // ABCDEF
		"0 1 3 5":     true, // ABDF
		"0 1 3 4 5":   true, // ABDEF
	}
	for _, p := range paths {
		key := ""
		for i, b := range p.Blocks {
			if i > 0 {
				key += " "
			}
			key += itoa(int(b))
		}
		if !want[key] {
			t.Errorf("unexpected path %q (sum %d)", key, p.Sum)
		}
		delete(want, key)
		if p.StartsAfterBackedge || p.EndsWithBackedge {
			t.Errorf("acyclic path %d has backedge flags", p.Sum)
		}
	}
	if len(want) != 0 {
		t.Errorf("paths not generated: %v", want)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// loopProc builds entry→header; header→{body, exit}; body→header.
func loopProc(t *testing.T) *ir.Proc {
	t.Helper()
	b := ir.NewBuilder("loop")
	p := b.NewProc("f", 0)
	entry := p.NewBlock()
	header := p.NewBlock()
	body := p.NewBlock()
	exit := p.NewBlock()
	entry.MovI(2, 0)
	entry.Jmp(header)
	header.CmpLTI(3, 2, 10)
	header.Br(3, body, exit)
	body.AddI(2, 2, 1)
	body.Jmp(header)
	exit.Ret()
	b.SetMain(p)
	return b.MustFinish().Procs[0]
}

func TestLoopTransform(t *testing.T) {
	nm, err := New(loopProc(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(nm.Backedges) != 1 {
		t.Fatalf("backedges = %d, want 1", len(nm.Backedges))
	}
	// Four path categories: entry→exit, entry→backedge, backedge→backedge,
	// backedge→exit.
	if nm.NumPaths != 4 {
		t.Fatalf("NumPaths = %d, want 4", nm.NumPaths)
	}
	if err := nm.CheckCompact(); err != nil {
		t.Fatal(err)
	}
	paths, err := nm.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	var starts, ends int
	for _, p := range paths {
		if p.StartsAfterBackedge {
			starts++
		}
		if p.EndsWithBackedge {
			ends++
		}
	}
	if starts != 2 || ends != 2 {
		t.Fatalf("starts=%d ends=%d, want 2 and 2", starts, ends)
	}
}

func TestSelfLoop(t *testing.T) {
	b := ir.NewBuilder("selfloop")
	p := b.NewProc("f", 0)
	entry := p.NewBlock()
	body := p.NewBlock()
	exit := p.NewBlock()
	entry.MovI(2, 0)
	entry.Jmp(body)
	body.AddI(2, 2, 1)
	body.CmpLTI(3, 2, 5)
	body.Br(3, body, exit)
	exit.Ret()
	b.SetMain(p)
	proc := b.MustFinish().Procs[0]

	nm, err := New(proc)
	if err != nil {
		t.Fatal(err)
	}
	if len(nm.Backedges) != 1 {
		t.Fatalf("backedges = %d, want 1 (self loop)", len(nm.Backedges))
	}
	if err := nm.CheckCompact(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleBlockProc(t *testing.T) {
	b := ir.NewBuilder("one")
	p := b.NewProc("f", 0)
	blk := p.NewBlock()
	blk.MovI(1, 42)
	blk.Ret()
	b.SetMain(p)
	nm, err := New(b.MustFinish().Procs[0])
	if err != nil {
		t.Fatal(err)
	}
	if nm.NumPaths != 1 {
		t.Fatalf("NumPaths = %d, want 1", nm.NumPaths)
	}
	path, err := nm.Regenerate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Blocks) != 1 || path.Blocks[0] != 0 {
		t.Fatalf("path = %v, want [0]", path.Blocks)
	}
}

// TestPathSumsCompactRandom is the central property: for random cyclic
// CFGs, path sums are a bijection onto 0..NumPaths-1.
func TestPathSumsCompactRandom(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		proc := testgen.RandomProc(rng, "r", rng.Intn(14)+3)
		nm, err := New(proc)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if nm.NumPaths > 1<<18 {
			return true // too big to enumerate; skip
		}
		if err := nm.CheckCompact(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRegenerateInverse checks that regenerating a path and re-walking it
// through the numbering reproduces the original sum.
func TestRegenerateInverse(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		proc := testgen.RandomProc(rng, "r", rng.Intn(12)+3)
		nm, err := New(proc)
		if err != nil || nm.NumPaths > 1<<14 {
			return err == nil
		}
		for s := int64(0); s < nm.NumPaths; s++ {
			p, err := nm.Regenerate(s)
			if err != nil {
				t.Logf("seed %d sum %d: %v", seed, s, err)
				return false
			}
			if got := walkSum(nm, p); got != s {
				t.Logf("seed %d: walk of regenerated path gives %d, want %d", seed, got, s)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// walkSum recomputes a path's sum from its recorded transformed edges.
func walkSum(nm *Numbering, p Path) int64 {
	sum := int64(0)
	for _, ref := range p.Edges {
		sum += nm.Succs[ref.Block][ref.Pos].Val
	}
	return sum
}

// TestOptimizedIncrementsPreserveSums checks the chord optimization:
// optimized increments reproduce every path's sum.
func TestOptimizedIncrementsPreserveSums(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		proc := testgen.RandomProc(rng, "r", rng.Intn(14)+3)
		nm, err := New(proc)
		if err != nil || nm.NumPaths > 1<<16 {
			return err == nil
		}
		inc, err := nm.Optimize(nil)
		if err != nil {
			t.Logf("seed %d: optimize: %v", seed, err)
			return false
		}
		if err := inc.VerifyPathSums(nm); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizeInstrumentationSites checks the static shape of the chord
// placement: the number of instrumented edges stays within one site of the
// basic placement (the optimization's real win is *where* increments land —
// off the hot tree edges — which the instrument package's overhead tests
// measure dynamically).
func TestOptimizeInstrumentationSites(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	total := 0
	for i := 0; i < 100; i++ {
		proc := testgen.RandomProc(rng, "r", rng.Intn(14)+4)
		nm, err := New(proc)
		if err != nil || nm.NumPaths > 1<<18 {
			continue
		}
		basic := nm.BasicIncrements()
		opt, err := nm.Optimize(nil)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if opt.Instrumented > opt.TotalEdges {
			t.Fatalf("instrumented %d of %d edges", opt.Instrumented, opt.TotalEdges)
		}
		if basic.Instrumented > basic.TotalEdges {
			t.Fatalf("basic placement instrumented %d of %d edges", basic.Instrumented, basic.TotalEdges)
		}
	}
	if total == 0 {
		t.Fatal("no testable graphs generated")
	}
}

func TestBasicIncrementsMatchNumbering(t *testing.T) {
	nm, err := New(figure1Proc(t))
	if err != nil {
		t.Fatal(err)
	}
	inc := nm.BasicIncrements()
	if err := inc.VerifyPathSums(nm); err != nil {
		t.Fatal(err)
	}
	if inc.TotalEdges != 8 {
		t.Fatalf("TotalEdges = %d, want 8", inc.TotalEdges)
	}
}

func TestEdgeValSumsWithinRange(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		proc := testgen.RandomAcyclicProc(rng, "r", rng.Intn(16)+3)
		nm, err := New(proc)
		if err != nil {
			return false
		}
		for b, es := range nm.Succs {
			for _, e := range es {
				if e.Val < 0 || e.Val >= nm.NumPaths {
					t.Logf("seed %d: edge %d->%d (slot %d) value %d out of [0,%d)", seed, b, e.To, e.Slot, e.Val, nm.NumPaths)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxValNonNegative(t *testing.T) {
	nm, err := New(loopProc(t))
	if err != nil {
		t.Fatal(err)
	}
	if nm.MaxVal() < 0 {
		t.Fatalf("MaxVal = %d", nm.MaxVal())
	}
}

// TestPrefixSumsUniquePerBlock: partial path sums uniquely identify the
// prefix among all prefixes ending at the same block — the property that
// makes the CCT's "one path to this call site" classification exact (the
// paper's Table 3 One Path column). Proof by contradiction with full-path
// uniqueness; verified here by enumeration on random CFGs.
func TestPrefixSumsUniquePerBlock(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		proc := testgen.RandomProc(rng, "r", rng.Intn(10)+3)
		nm, err := New(proc)
		if err != nil || nm.NumPaths > 1<<14 {
			return err == nil
		}
		// Enumerate all prefixes of the transformed graph; at each block,
		// the (prefix path, partial sum) mapping must be injective.
		type key struct {
			block ir.BlockID
			sum   int64
		}
		seen := map[key]string{}
		var walk func(b ir.BlockID, sum int64, trail string) bool
		walk = func(b ir.BlockID, sum int64, trail string) bool {
			k := key{b, sum}
			if prev, ok := seen[k]; ok && prev != trail {
				t.Logf("seed %d: prefixes %q and %q share sum %d at block %d", seed, prev, trail, sum, b)
				return false
			}
			seen[k] = trail
			if b == proc.ExitBlock {
				return true
			}
			for pos, te := range nm.Succs[b] {
				if !walk(te.To, sum+te.Val, trail+" "+itoa(pos)+":"+itoa(int(te.To))) {
					return false
				}
			}
			return true
		}
		return walk(0, 0, "")
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestRegeneratePrefixInverse: for every prefix of every potential path,
// the (block, partial sum) pair regenerates exactly that prefix.
func TestRegeneratePrefixInverse(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		proc := testgen.RandomProc(rng, "r", rng.Intn(9)+3)
		nm, err := New(proc)
		if err != nil || nm.NumPaths > 1<<10 {
			return err == nil
		}
		paths, err := nm.Enumerate()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, p := range paths {
			sum := int64(0)
			for i, ref := range p.Edges {
				te := nm.Succs[ref.Block][ref.Pos]
				if te.Kind == PseudoEnd {
					break // prefixes never include the final backedge
				}
				sum += te.Val
				// Edge i lands on Blocks[i+1] for ordinary paths (which
				// include ENTRY as Blocks[0]) and on Blocks[i] for paths
				// that start after a backedge (edge 0 is the pseudo edge
				// delivering Blocks[0]).
				var at ir.BlockID
				var want []ir.BlockID
				if p.StartsAfterBackedge {
					at = p.Blocks[i]
					want = p.Blocks[:i+1]
				} else {
					at = p.Blocks[i+1]
					want = p.Blocks[:i+2]
				}
				got, err := nm.RegeneratePrefix(at, sum)
				if err != nil {
					t.Logf("seed %d: prefix (b%d, %d): %v", seed, at, sum, err)
					return false
				}
				if len(got.Blocks) != len(want) {
					t.Logf("seed %d: prefix (b%d,%d): got %v want %v", seed, at, sum, got.Blocks, want)
					return false
				}
				for j := range want {
					if got.Blocks[j] != want[j] {
						t.Logf("seed %d: prefix (b%d,%d): got %v want %v", seed, at, sum, got.Blocks, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCompactReportsOffendingPath(t *testing.T) {
	nm, err := New(figure1Proc(t))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one edge value: every path through it now collides with (or
	// escapes) the compact range, and the error must carry that path.
corrupt:
	for b := range nm.Succs {
		for i := range nm.Succs[b] {
			if nm.Succs[b][i].Val != 0 {
				nm.Succs[b][i].Val += 2
				break corrupt
			}
		}
	}
	err = nm.CheckCompact()
	var ce *CompactError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CompactError", err, err)
	}
	if ce.Kind != "out-of-range" && ce.Kind != "duplicate" {
		t.Fatalf("Kind = %q, want out-of-range or duplicate", ce.Kind)
	}
	if len(ce.Path) < 2 || ce.Path[0] != 0 || ce.Path[len(ce.Path)-1] != nm.Proc.ExitBlock {
		t.Fatalf("Path = %v, want entry..exit sequence", ce.Path)
	}
}
