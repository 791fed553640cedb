package sim

import (
	"pathprof/internal/ir"
	"pathprof/internal/mem"
)

// op is one pre-decoded instruction: fixed size, with its operands copied
// out of the ir.Instr and its fetch behaviour resolved.
type op struct {
	code       ir.Opcode
	rd, rs, rt ir.Reg
	flags      uint8
	// origin is reserved for the instrumentation class the instruction
	// comes from, which a per-origin cycle ledger will read; the
	// simulator does not use it yet.
	origin uint8
	_      [2]byte
	imm    int64
}

// fLine marks an op whose fetch must go through the L1I: it starts an
// I-cache line, or control can reach it from elsewhere — the first op of
// an IR block, the op after a call, where the return resumes, and the op
// after a SetJmp, where a longjmp resumes. Any other op sits in the line of
// the op before it, which was fetched just before, is resident and most
// recently used in its set, so its fetch is a hit that changes nothing but
// the hit count. Marking an op that is reached only in sequence is exact
// too: its fetch through the L1I is that same hit.
const fLine uint8 = 1

// dblock is a decoded block: a run of ops of one IR block that ends at the
// first op that leaves the straight-line flow or can observe machine
// state — a terminator, a call, a probe, RdPIC, WrPIC, RdTick, SetJmp or
// LongJmp (an exit op). Every op before the exit op is a plain op, which
// reads no counter, so the block loop charges plain ops in bulk and
// settles every charge before the exit op runs. An IR block with k such
// ops decodes into k blocks chained through succ[0].
type dblock struct {
	ops  []op
	base uint64 // instruction address of ops[0]
	proc *ir.Proc
	id   ir.BlockID
	off  int // index of ops[0] within the IR block

	// succ holds the blocks control continues in: for Br the taken and
	// the fall-through target, for Jmp its target, and for every other
	// exit op but Ret, Halt and LongJmp the next block of the same IR
	// block (where a call returns to).
	succ [2]*dblock

	// The static charges of running every op: the loads and stores, and
	// the fetches without fLine, which hit.
	loads, stores, hits uint64
}

// exitOp reports whether code ends a decoded block.
func exitOp(code ir.Opcode) bool {
	switch code {
	case ir.Br, ir.Jmp, ir.Ret, ir.Halt, ir.Call, ir.CallInd,
		ir.Probe, ir.RdPIC, ir.WrPIC, ir.RdTick, ir.SetJmp, ir.LongJmp:
		return true
	}
	return false
}

// decode decodes every block of prog and returns the first decoded block
// of each (procedure, block). It lays code out sequentially from
// mem.TextBase in block order, InstrBytes per instruction and each
// procedure aligned to a fresh ProcAlign-byte line, and marks line starts
// for an L1I of lineBytes-byte lines. All ops share one array and all
// blocks another, so the decoded program is two allocations plus the
// per-procedure index, and it lives as long as the machine.
func decode(prog *ir.Program, lineBytes uint64) [][]*dblock {
	nops, nblocks := 0, 0
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			nops += len(b.Instrs)
			for j, in := range b.Instrs {
				if exitOp(in.Op) || j == len(b.Instrs)-1 {
					nblocks++
				}
			}
		}
	}
	ops := make([]op, nops)
	dbs := make([]dblock, nblocks)
	firsts := make([][]*dblock, len(prog.Procs))
	addr := mem.TextBase
	for pi, p := range prog.Procs {
		firsts[pi] = make([]*dblock, len(p.Blocks))
		for bi, b := range p.Blocks {
			var prev *dblock
			start := 0
			for j, in := range b.Instrs {
				o := &ops[j]
				*o = op{code: in.Op, rd: in.Rd, rs: in.Rs, rt: in.Rt, imm: in.Imm}
				a := addr + uint64(j)*InstrBytes
				if j == 0 || a%lineBytes == 0 || b.Instrs[j-1].Op.IsCall() || b.Instrs[j-1].Op == ir.SetJmp {
					o.flags |= fLine
				}
				if !exitOp(in.Op) && j < len(b.Instrs)-1 {
					continue
				}
				d := &dbs[0]
				dbs = dbs[1:]
				*d = dblock{ops: ops[start : j+1 : j+1], base: addr + uint64(start)*InstrBytes,
					proc: p, id: ir.BlockID(bi), off: start}
				d.loads, d.stores, d.hits = d.census(0, len(d.ops))
				if prev == nil {
					firsts[pi][bi] = d
				} else {
					prev.succ[0] = d
				}
				prev, start = d, j+1
			}
			ops = ops[len(b.Instrs):]
			addr += uint64(len(b.Instrs)) * InstrBytes
		}
		addr = (addr + ProcAlign - 1) &^ (ProcAlign - 1) // procedures start on fresh cache lines
	}
	// Branch targets, now that every block has its decoded form. A target
	// out of range stays nil and faults only if the branch runs, as the
	// undecoded IR would.
	for pi, p := range prog.Procs {
		for bi, b := range p.Blocks {
			d := firsts[pi][bi]
			if d == nil {
				continue
			}
			for d.off+len(d.ops) < len(b.Instrs) {
				d = d.succ[0]
			}
			if code := d.ops[len(d.ops)-1].code; code != ir.Br && code != ir.Jmp {
				continue
			}
			for k, s := range b.Succs {
				if k < len(d.succ) && int(s) < len(firsts[pi]) {
					d.succ[k] = firsts[pi][s]
				}
			}
		}
	}
	return firsts
}

// census counts the loads, stores and hitting fetches among ops
// [from, to).
func (d *dblock) census(from, to int) (loads, stores, hits uint64) {
	for i := from; i < to; i++ {
		o := &d.ops[i]
		switch {
		case o.code.IsLoad():
			loads++
		case o.code.IsStore():
			stores++
		}
		if o.flags&fLine == 0 {
			hits++
		}
	}
	return loads, stores, hits
}

// locate returns the decoded block of proc that holds instruction idx of
// IR block blk, and the op's index in it.
func (m *Machine) locate(proc *ir.Proc, blk ir.BlockID, idx int) (*dblock, int) {
	d := m.blocks[proc.ID][blk]
	for idx >= d.off+len(d.ops) {
		d = d.succ[0]
	}
	return d, idx - d.off
}
