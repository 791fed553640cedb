// Package instrument is the executable-editing layer (the role EEL played
// for PP): it rewrites ir programs to insert edge-count, Ball-Larus path,
// and calling-context-tree instrumentation, and wires the resulting plan to
// a simulator instance.
//
// Editing follows binary-instrumentation reality: instrumentation may only
// use registers the procedure does not, splitting CFG edges inserts real
// branches, and when too few registers are free the instrumenter spills —
// all of which perturbs the measured metrics, as Section 3.2 and Table 2 of
// the paper discuss.
package instrument

import (
	"fmt"
	"slices"

	"pathprof/internal/ir"
)

// editor performs structural edits on one (cloned) procedure. Every block
// it rebuilds gets an instruction slice of exact length (slices.Concat):
// the plan keeps the edited program for as long as it is run.
type editor struct {
	proc *ir.Proc
}

// splitEntry gives the procedure a fresh, empty entry block (block 0) that
// jumps to the old entry body, which moves to a new block ID. All edges that
// targeted block 0 (necessarily backedges) are redirected to the moved body,
// so code placed in the new entry runs exactly once per activation.
// It returns the moved body's new ID.
func (ed *editor) splitEntry() ir.BlockID {
	p := ed.proc
	moved := &ir.Block{
		ID:     ir.BlockID(len(p.Blocks)),
		Instrs: p.Blocks[0].Instrs,
		Succs:  p.Blocks[0].Succs,
	}
	p.Blocks = append(p.Blocks, moved)
	for _, b := range p.Blocks {
		if b == moved {
			continue
		}
		for i, s := range b.Succs {
			if s == 0 {
				b.Succs[i] = moved.ID
			}
		}
	}
	p.Blocks[0] = &ir.Block{
		ID:     0,
		Instrs: []ir.Instr{{Op: ir.Jmp}},
		Succs:  []ir.BlockID{moved.ID},
	}
	if p.ExitBlock == 0 {
		p.ExitBlock = moved.ID
	}
	return moved.ID
}

// prependEntry inserts seq at the top of the (already split) entry block.
func (ed *editor) prependEntry(seq []ir.Instr) {
	b := ed.proc.Blocks[0]
	b.Instrs = slices.Concat(seq, b.Instrs)
}

// insertBeforeTerm appends seq just before the terminator of block b.
func (ed *editor) insertBeforeTerm(b ir.BlockID, seq []ir.Instr) {
	blk := ed.proc.Blocks[b]
	t := len(blk.Instrs) - 1
	blk.Instrs = slices.Concat(blk.Instrs[:t], seq, blk.Instrs[t:])
}

// insertAt inserts seq before the instruction at index idx of block b.
func (ed *editor) insertAt(b ir.BlockID, idx int, seq []ir.Instr) {
	blk := ed.proc.Blocks[b]
	blk.Instrs = slices.Concat(blk.Instrs[:idx], seq, blk.Instrs[idx:])
}

// numPreds counts incoming edges (not distinct predecessors) per block.
func (ed *editor) numPreds() []int {
	n := make([]int, len(ed.proc.Blocks))
	for _, b := range ed.proc.Blocks {
		for _, s := range b.Succs {
			n[s]++
		}
	}
	return n
}

// insertOnEdge places seq so it executes exactly when the edge
// (from, slot) -> to executes: at the end of the source when it has a single
// out-edge, at the start of the target when it has a single in-edge, else
// in a freshly split block (a real inserted branch, as EEL's code layout
// may introduce). preds must come from numPreds computed before any edge
// splitting of this pass begins (splits only add blocks with one in-edge,
// so earlier counts stay valid for original blocks).
func (ed *editor) insertOnEdge(from ir.BlockID, slot int, preds []int, seq []ir.Instr) {
	p := ed.proc
	src := p.Blocks[from]
	to := src.Succs[slot]
	if len(src.Succs) == 1 {
		ed.insertBeforeTerm(from, seq)
		return
	}
	if int(to) < len(preds) && preds[to] == 1 && to != 0 {
		b := p.Blocks[to]
		b.Instrs = slices.Concat(seq, b.Instrs)
		return
	}
	// Split the edge.
	nb := &ir.Block{
		ID:     ir.BlockID(len(p.Blocks)),
		Instrs: slices.Concat(seq, []ir.Instr{{Op: ir.Jmp}}),
		Succs:  []ir.BlockID{to},
	}
	p.Blocks = append(p.Blocks, nb)
	src.Succs[slot] = nb.ID
}

// freeRegs returns up to want registers unused by the procedure, searching
// from the top of the register file downward and excluding the stack
// pointer.
func freeRegs(p *ir.Proc, want int) []ir.Reg {
	used := p.UsedRegs()
	var out []ir.Reg
	for r := ir.NumRegs - 1; r >= 0 && len(out) < want; r-- {
		reg := ir.Reg(r)
		if reg == ir.RegSP || used[reg] {
			continue
		}
		out = append(out, reg)
	}
	return out
}

// regPlan abstracts over the two register regimes: direct (enough free
// registers for all instrumentation state) and spill (state lives in an
// instrumentation stack frame reached through a single free frame register,
// with scratch registers borrowed — saved and restored — around every
// sequence). Spill mode models EEL's register spilling and its perturbation.
type regPlan struct {
	spill bool

	// pairs is how many counter pairs the HW instrumentation saves and
	// restores (0 and 1 mean the classic single PIC pair).
	pairs int

	// Direct mode: dedicated registers.
	zero      ir.Reg // always 0
	path      ir.Reg // Ball-Larus tracking register
	tmp       [3]ir.Reg
	save      ir.Reg   // saved counter pair 0 across the activation (PathHW)
	saveExtra []ir.Reg // saved pairs 1.. for wide metric schemas

	// Spill mode.
	frame   ir.Reg    // the single free register, holds the frame base
	victims [5]ir.Reg // borrowed registers (r0..): saved around sequences

	// allocated is the full list of free registers handed out in direct
	// mode (the pass's reserved set), for the exported RegInfo.
	allocated []ir.Reg
}

// Frame slot offsets (bytes) in spill mode. Extra saved counter pairs for
// wide metric schemas extend the frame past frameBytes (see slotSave), so
// the classic layout — and every address the two-counter instrumentation
// emits — is untouched.
const (
	slotPath    = 0  // spilled path register
	slotSavePIC = 8  // saved counter pair (also used in direct mode frames)
	slotVictim0 = 16 // victim save area: 5 slots
	frameBytes  = 64
)

func (rp *regPlan) numPairs() int {
	if rp.pairs < 1 {
		return 1
	}
	return rp.pairs
}

// frameSize returns the spill frame size: the classic 64 bytes plus one
// slot per extra saved counter pair.
func (rp *regPlan) frameSize() int64 {
	return frameBytes + 8*int64(rp.numPairs()-1)
}

// slotSave returns the frame offset holding saved counter pair pr.
func (rp *regPlan) slotSave(pr int) int64 {
	if pr == 0 {
		return slotSavePIC
	}
	return frameBytes + 8*int64(pr-1)
}

// saveReg returns the direct-mode register holding saved counter pair pr.
func (rp *regPlan) saveReg(pr int) ir.Reg {
	if pr == 0 {
		return rp.save
	}
	return rp.saveExtra[pr-1]
}

// planRegs decides the regime for a procedure needing `need` dedicated
// registers (zero + path + temps). It returns an error only when not even
// one register is free.
func planRegs(p *ir.Proc, need int) (*regPlan, error) {
	free := freeRegs(p, need)
	if len(free) >= need {
		rp := &regPlan{allocated: free}
		rp.zero = free[0]
		if len(free) > 1 {
			rp.path = free[1]
		}
		for i := 0; i < 3 && 2+i < len(free); i++ {
			rp.tmp[i] = free[2+i]
		}
		if len(free) > 5 {
			rp.save = free[5]
		}
		if len(free) > 6 {
			rp.saveExtra = free[6:]
		}
		return rp, nil
	}
	if len(free) == 0 {
		return nil, fmt.Errorf("instrument: proc %s: no free registers", p.Name)
	}
	rp := &regPlan{spill: true, frame: free[0]}
	// Borrow low registers as victims (they are certainly used by the
	// procedure, which is the point: we must save and restore them).
	v := 0
	for r := ir.Reg(9); v < len(rp.victims); r++ {
		if r == ir.RegSP || r == rp.frame {
			continue
		}
		rp.victims[v] = r
		v++
	}
	return rp, nil
}

// info exports the plan for verifiers (see RegInfo).
func (rp *regPlan) info() *RegInfo {
	ri := &RegInfo{
		Spill:     rp.spill,
		Pairs:     rp.numPairs(),
		Zero:      rp.zero,
		Path:      rp.path,
		Tmp:       rp.tmp,
		Save:      rp.save,
		SaveExtra: rp.saveExtra,
		Frame:     rp.frame,
		Victims:   rp.victims,
	}
	if rp.spill {
		ri.Reserved = []ir.Reg{rp.frame}
	} else {
		ri.Reserved = append([]ir.Reg(nil), rp.allocated...)
	}
	return ri
}

// seqBuilder accumulates an instrumentation sequence under a regPlan,
// wrapping it with victim saves/restores in spill mode. Victim assignment:
// victims[0] serves as the zero register, victims[1] as the path register,
// victims[2..] as scratch.
type seqBuilder struct {
	rp       *regPlan
	instr    []ir.Instr
	borrowed [5]bool
}

func (rp *regPlan) seq() *seqBuilder { return &seqBuilder{rp: rp} }

func (sb *seqBuilder) victim(i int) ir.Reg {
	sb.borrowed[i] = true
	return sb.rp.victims[i]
}

func (sb *seqBuilder) emit(in ...ir.Instr) *seqBuilder {
	sb.instr = append(sb.instr, in...)
	return sb
}

// zeroReg returns a register guaranteed to hold 0 within this sequence.
func (sb *seqBuilder) zeroReg() ir.Reg {
	if !sb.rp.spill {
		return sb.rp.zero
	}
	r := sb.victim(0)
	sb.emit(ir.Instr{Op: ir.MovI, Rd: r, Imm: 0})
	return r
}

// pathReg returns a register holding the current path sum, loading it from
// the instrumentation frame in spill mode.
func (sb *seqBuilder) pathReg() ir.Reg {
	if !sb.rp.spill {
		return sb.rp.path
	}
	r := sb.victim(1)
	sb.emit(ir.Instr{Op: ir.Load, Rd: r, Rs: sb.rp.frame, Imm: slotPath})
	return r
}

// pathRegNoLoad returns the path register without loading its value (for
// sequences that overwrite it).
func (sb *seqBuilder) pathRegNoLoad() ir.Reg {
	if !sb.rp.spill {
		return sb.rp.path
	}
	return sb.victim(1)
}

// storePath persists the path register to the frame in spill mode.
func (sb *seqBuilder) storePath() {
	if !sb.rp.spill {
		return
	}
	sb.emit(ir.Instr{Op: ir.Store, Rs: sb.rp.frame, Imm: slotPath, Rd: sb.rp.victims[1]})
}

// scratch returns the i-th scratch register (0-based).
func (sb *seqBuilder) scratch(i int) ir.Reg {
	if !sb.rp.spill {
		return sb.rp.tmp[i]
	}
	return sb.victim(2 + i)
}

// finish returns the full sequence. In spill mode every borrowed victim is
// stored to the instrumentation frame before the body and reloaded after,
// so the procedure's own values survive.
func (sb *seqBuilder) finish() []ir.Instr {
	if !sb.rp.spill {
		return sb.instr
	}
	var out []ir.Instr
	for i, used := range sb.borrowed {
		if used {
			out = append(out, ir.Instr{Op: ir.Store, Rs: sb.rp.frame, Imm: int64(slotVictim0 + 8*i), Rd: sb.rp.victims[i]})
		}
	}
	out = append(out, sb.instr...)
	for i, used := range sb.borrowed {
		if used {
			out = append(out, ir.Instr{Op: ir.Load, Rd: sb.rp.victims[i], Rs: sb.rp.frame, Imm: int64(slotVictim0 + 8*i)})
		}
	}
	return out
}
