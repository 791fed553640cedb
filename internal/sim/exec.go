package sim

import (
	"fmt"
	"math"

	"pathprof/internal/hpm"
	"pathprof/internal/ir"
)

// exec is the simulator core. It runs decoded blocks until the machine
// halts, an instruction faults, or m.steps reaches stop; Run and Step are
// both built on it.
//
// A block's plain ops run in one tight loop that charges nothing per
// instruction: it fetches through the L1I only at ops marked fLine and
// ticks base cycles only where an op reads the cycle count (stores and FP
// ops). The run is then settled in bulk — instructions, the base cycles
// not yet ticked, loads and stores, and the fetches counted as L1I hits —
// before the block's exit op runs, so an exit op that reads a counter, the
// cycle count or the tracer's view sees exactly what charging every
// instruction as it retires gives. Branches, jumps, calls and returns
// continue into the next decoded block without leaving exec.
//
// Three things must happen at an exact instruction even inside a run of
// plain ops: reaching stop, a Scheduler rotation, and the drain of a
// buffered PIC write. Before each run exec works out how many instructions
// may retire before the first of them (room); when that falls inside the
// run, the run stops there, is settled and retires, which drains or
// rotates at that instruction, and exec carries on from the next op.
func (m *Machine) exec(stop uint64) error {
	f := m.top()
	b, i := f.blk, f.idx
	regs := &f.regs
	l1i, l1d, memory, u := m.l1i, m.l1d, m.memory, m.pmu
	narrow := m.cfg.IssueWidth <= 1
	var err error
	for m.steps < stop {
		// room counts the instructions that may retire before one must end
		// the run: the last before stop, or, when a scheduler or a
		// buffered PIC write counts retirements (careful), the one at
		// which it rotates or drains.
		room := stop - m.steps
		careful := m.mux != nil || u.DrainsIn() != math.MaxUint64
		if careful {
			if m.mux != nil {
				room = min(room, m.muxQuantum-m.muxSpent)
			}
			room = min(room, u.DrainsIn())
		}
		last := len(b.ops) - 1
		end, partial := last, room <= uint64(last-i)
		if partial {
			end = i + int(room)
		}
		start, ct := i, i // ops before ct have ticked their base cycles
	run:
		for ; i < end; i++ {
			o := &b.ops[i]
			if o.flags&fLine != 0 {
				if addr := b.base + uint64(i)*InstrBytes; !l1i.TryRead(addr) {
					m.fetchSlow(addr)
				}
			}
			switch o.code {
			case ir.Nop:

			case ir.Add:
				regs[o.rd] = regs[o.rs] + regs[o.rt]
			case ir.Sub:
				regs[o.rd] = regs[o.rs] - regs[o.rt]
			case ir.Mul:
				regs[o.rd] = regs[o.rs] * regs[o.rt]
			case ir.Div:
				if regs[o.rt] == 0 {
					regs[o.rd] = 0
				} else {
					regs[o.rd] = regs[o.rs] / regs[o.rt]
				}
			case ir.Rem:
				if regs[o.rt] == 0 {
					regs[o.rd] = 0
				} else {
					regs[o.rd] = regs[o.rs] % regs[o.rt]
				}
			case ir.And:
				regs[o.rd] = regs[o.rs] & regs[o.rt]
			case ir.Or:
				regs[o.rd] = regs[o.rs] | regs[o.rt]
			case ir.Xor:
				regs[o.rd] = regs[o.rs] ^ regs[o.rt]
			case ir.Shl:
				regs[o.rd] = regs[o.rs] << (uint64(regs[o.rt]) & 63)
			case ir.Shr:
				regs[o.rd] = int64(uint64(regs[o.rs]) >> (uint64(regs[o.rt]) & 63))

			case ir.AddI:
				regs[o.rd] = regs[o.rs] + o.imm
			case ir.MulI:
				regs[o.rd] = regs[o.rs] * o.imm
			case ir.AndI:
				regs[o.rd] = regs[o.rs] & o.imm
			case ir.OrI:
				regs[o.rd] = regs[o.rs] | o.imm
			case ir.XorI:
				regs[o.rd] = regs[o.rs] ^ o.imm
			case ir.ShlI:
				regs[o.rd] = regs[o.rs] << (uint64(o.imm) & 63)
			case ir.ShrI:
				regs[o.rd] = int64(uint64(regs[o.rs]) >> (uint64(o.imm) & 63))

			case ir.MovI:
				regs[o.rd] = o.imm
			case ir.Mov:
				regs[o.rd] = regs[o.rs]

			case ir.CmpLT:
				regs[o.rd] = b2i(regs[o.rs] < regs[o.rt])
			case ir.CmpLE:
				regs[o.rd] = b2i(regs[o.rs] <= regs[o.rt])
			case ir.CmpEQ:
				regs[o.rd] = b2i(regs[o.rs] == regs[o.rt])
			case ir.CmpNE:
				regs[o.rd] = b2i(regs[o.rs] != regs[o.rt])
			case ir.CmpLTI:
				regs[o.rd] = b2i(regs[o.rs] < o.imm)
			case ir.CmpLEI:
				regs[o.rd] = b2i(regs[o.rs] <= o.imm)
			case ir.CmpEQI:
				regs[o.rd] = b2i(regs[o.rs] == o.imm)
			case ir.CmpNEI:
				regs[o.rd] = b2i(regs[o.rs] != o.imm)

			case ir.Load, ir.LoadIdx:
				addr := uint64(regs[o.rs] + o.imm)
				if o.code == ir.LoadIdx {
					addr = uint64(regs[o.rs] + regs[o.rt]*8 + o.imm)
				}
				if addr&7 != 0 {
					err = fmt.Errorf("unaligned load at %#x in %s b%d", addr, b.proc.Name, b.id)
					break run
				}
				if !l1d.TryRead(addr) {
					m.readSlow(addr)
				}
				regs[o.rd] = memory.LoadAligned(addr)

			case ir.Store, ir.StoreIdx, ir.FAdd, ir.FSub, ir.FMul, ir.FDiv, ir.FCmpLT,
				ir.FNeg, ir.FSqrt, ir.CvtIF, ir.CvtFI:
				// These read the cycle count (the store buffer, the FP
				// scoreboard), so the base cycles up to this op come first.
				if k := uint64(i + 1 - ct); narrow {
					m.cycles += k // tick's scalar case, inline
					u.Count(hpm.EvCycles, k)
				} else {
					m.tick(k)
				}
				ct = i + 1
				if !o.code.IsStore() {
					m.fp(o, regs)
					break
				}
				addr := uint64(regs[o.rs] + o.imm)
				if o.code == ir.StoreIdx {
					addr = uint64(regs[o.rs] + regs[o.rt]*8 + o.imm)
				}
				if addr&7 != 0 {
					err = fmt.Errorf("unaligned store at %#x in %s b%d", addr, b.proc.Name, b.id)
					break run
				}
				m.write(addr)
				memory.StoreAligned(addr, regs[o.rd])

			case ir.Out:
				if len(m.output) >= m.cfg.MaxOutput {
					err = fmt.Errorf("output limit %d exceeded", m.cfg.MaxOutput)
					break run
				}
				m.output = append(m.output, regs[o.rs])

			default:
				err = fmt.Errorf("unimplemented opcode %s", o.code)
				break run
			}
		}

		// Settle the ops that ran, [start, to): the plain ops up to end or
		// up to the one that faulted, and the exit op's fetch, instruction
		// and base cycle, which it would have been charged by the time it
		// executes.
		to := i
		var o *op
		var iaddr uint64
		if !partial && err == nil {
			o = &b.ops[last]
			iaddr = b.base + uint64(last)*InstrBytes
			if o.flags&fLine != 0 && !l1i.TryRead(iaddr) {
				m.fetchSlow(iaddr)
			}
			to = last + 1
		}
		n := uint64(to - start)
		m.steps += n
		u.Count(hpm.EvInsts, n)
		tickTo := to
		if err != nil {
			tickTo = i + 1 // a faulting op was charged its base cycle
		}
		if k := uint64(tickTo - ct); narrow {
			m.cycles += k // tick's scalar case, inline
			u.Count(hpm.EvCycles, k)
		} else {
			m.tick(k)
		}
		loads, stores, hits := b.loads, b.stores, b.hits
		if start != 0 || to != len(b.ops) {
			loads, stores, hits = b.census(start, to)
		}
		u.Count(hpm.EvLoads, loads)
		u.Count(hpm.EvDCacheRead, loads)
		u.Count(hpm.EvStores, stores)
		u.Count(hpm.EvDCacheWrite, stores)
		l1i.CountReadHits(hits)

		if err != nil {
			// The op at i faulted after its fetch: it is charged as an
			// instruction, with its base cycle, but did not retire or
			// touch memory.
			if careful {
				m.retire(n)
			}
			m.steps++
			u.Count(hpm.EvInsts, 1)
			if b.ops[i].flags&fLine == 0 {
				l1i.CountReadHits(1)
			}
			f.blk, f.idx = b, i
			return err
		}
		if partial {
			if careful {
				m.retire(n)
			}
			continue
		}

		// The exit op, after the plain ops before it retire.
		if careful {
			m.retire(n - 1)
		}
		switch o.code {
		case ir.Br:
			u.Count(hpm.EvBranches, 1)
			taken := regs[o.rs] != 0
			if !m.pred.Predict(iaddr, taken) {
				u.Count(hpm.EvMispredict, 1)
				u.Count(hpm.EvMispredictStalls, m.cfg.MispredictPenalty)
				m.addCycles(m.cfg.MispredictPenalty)
			}
			slot := 1
			if taken {
				slot = 0
			}
			m.issueSlots = 0 // control transfers end an issue group
			if m.tracer != nil {
				m.tracer.Edge(b.proc.ID, b.id, slot)
			}
			b, i = b.succ[slot], 0

		case ir.Jmp:
			if m.tracer != nil {
				m.tracer.Edge(b.proc.ID, b.id, 0)
			}
			b, i = b.succ[0], 0

		case ir.Call, ir.CallInd:
			target := o.imm
			if o.code == ir.CallInd {
				target = regs[o.rs]
			}
			if target < 0 || int(target) >= len(m.prog.Procs) {
				err = fmt.Errorf("call to invalid procedure %d at %s b%d", target, b.proc.Name, b.id)
				break
			}
			if len(m.frames) >= m.cfg.MaxDepth {
				err = fmt.Errorf("call depth limit %d exceeded calling %s", m.cfg.MaxDepth, m.prog.Procs[target].Name)
				break
			}
			u.Count(hpm.EvCalls, 1)
			m.addCycles(1) // call overhead
			if m.tracer != nil {
				m.tracer.Enter(int(target))
			}
			f.blk, f.idx = b.succ[0], 0 // resume after the call
			b, i = m.blocks[target][0], 0
			f = m.push(b)
			regs = &f.regs
			m.fpReady = [ir.NumRegs]uint64{}

		case ir.Ret:
			if m.tracer != nil {
				m.tracer.Exit(b.proc.ID)
			}
			if len(m.frames) == 1 {
				// Returning from main halts the machine.
				m.halted = true
				i = last
				break
			}
			rv, sp := regs[ir.RegRV], regs[ir.RegSP]
			m.frames = m.frames[:len(m.frames)-1]
			f = m.top()
			regs = &f.regs
			regs[ir.RegRV], regs[ir.RegSP] = rv, sp
			b, i = f.blk, f.idx
			m.fpReady = [ir.NumRegs]uint64{}

		case ir.Halt:
			m.halted = true
			i = last

		case ir.Probe:
			var fn Probe
			if uint64(o.imm) < uint64(len(m.probes)) {
				fn = m.probes[o.imm]
			}
			if fn == nil {
				err = fmt.Errorf("unknown probe %d in %s", o.imm, b.proc.Name)
				break
			}
			regs[o.rd] = fn(m, regs[o.rs])
			b, i = b.succ[0], 0

		case ir.RdPIC:
			// Imm selects the counter pair; the classic instrumentation
			// leaves it zero (PIC0/PIC1), wider metric sets address pairs
			// 1, 2, ...
			regs[o.rd] = int64(u.ReadPair(int(o.imm)))
			b, i = b.succ[0], 0
		case ir.WrPIC:
			u.WritePair(int(o.imm), uint64(regs[o.rs]))
			b, i = b.succ[0], 0
		case ir.RdTick:
			regs[o.rd] = int64(m.cycles)
			b, i = b.succ[0], 0

		case ir.SetJmp:
			m.jmpbufs = append(m.jmpbufs, jmpbuf{
				depth: len(m.frames) - 1,
				blk:   b.id,
				idx:   b.off + last + 1,
				rt:    o.rt,
			})
			regs[o.rd] = int64(len(m.jmpbufs)) // handle (1-based)
			regs[o.rt] = 0
			b, i = b.succ[0], 0
		case ir.LongJmp:
			h := regs[o.rs]
			if h < 1 || int(h) > len(m.jmpbufs) {
				err = fmt.Errorf("longjmp with invalid handle %d", h)
				break
			}
			buf := m.jmpbufs[h-1]
			if buf.depth >= len(m.frames) {
				err = fmt.Errorf("longjmp to dead frame (handle %d)", h)
				break
			}
			val := regs[o.rt]
			m.frames = m.frames[:buf.depth+1]
			f = m.top()
			regs = &f.regs
			b, i = m.locate(f.blk.proc, buf.blk, buf.idx)
			regs[buf.rt] = val
			f.blk, f.idx = b, i
			for _, fn := range m.onUnwind {
				fn(len(m.frames))
			}
			m.fpReady = [ir.NumRegs]uint64{}

		default:
			err = fmt.Errorf("unimplemented opcode %s", o.code)
		}
		if err != nil {
			f.blk, f.idx = b, last
			return err
		}
		// The exit op retires too; it may have buffered a PIC write.
		if m.mux != nil || u.DrainsIn() != math.MaxUint64 {
			m.retire(1)
		}
		if m.halted {
			break
		}
	}
	f.blk, f.idx = b, i
	return nil
}

// fp executes an FP op, whose base cycles exec has charged.
func (m *Machine) fp(o *op, regs *[ir.NumRegs]int64) {
	switch o.code {
	case ir.FAdd, ir.FSub, ir.FMul, ir.FDiv, ir.FCmpLT:
		m.waitFP(o.rs)
		m.waitFP(o.rt)
		x := math.Float64frombits(uint64(regs[o.rs]))
		y := math.Float64frombits(uint64(regs[o.rt]))
		var v float64
		switch o.code {
		case ir.FAdd:
			v = x + y
		case ir.FSub:
			v = x - y
		case ir.FMul:
			v = x * y
		case ir.FDiv:
			v = x / y
		case ir.FCmpLT:
			regs[o.rd] = b2i(x < y)
			return
		}
		regs[o.rd] = int64(math.Float64bits(v))
		m.fpReady[o.rd] = m.cycles + m.cfg.FPLatency
	case ir.FNeg:
		m.waitFP(o.rs)
		regs[o.rd] = int64(math.Float64bits(-math.Float64frombits(uint64(regs[o.rs]))))
		m.fpReady[o.rd] = m.cycles + m.cfg.FPLatency
	case ir.FSqrt:
		m.waitFP(o.rs)
		regs[o.rd] = int64(math.Float64bits(math.Sqrt(math.Float64frombits(uint64(regs[o.rs])))))
		m.fpReady[o.rd] = m.cycles + 2*m.cfg.FPLatency
	case ir.CvtIF:
		regs[o.rd] = int64(math.Float64bits(float64(regs[o.rs])))
		m.fpReady[o.rd] = m.cycles + m.cfg.FPLatency
	case ir.CvtFI:
		m.waitFP(o.rs)
		regs[o.rd] = int64(math.Float64frombits(uint64(regs[o.rs])))
	}
}

// retire retires n instructions: it ages a buffered PIC write and the
// scheduler's interval, rotating the scheduler once its quantum is spent.
// With neither in play, as in most runs, there is nothing to do, and exec
// does not call it.
func (m *Machine) retire(n uint64) {
	m.pmu.RetireN(n)
	if m.mux != nil {
		m.muxSpent += n
		if m.muxSpent >= m.muxQuantum {
			m.mux.Rotate(m.muxSpent)
			m.muxSpent = 0
		}
	}
}

// push starts an activation of the procedure whose entry is callee: the
// callee sees the caller's argument registers and stack pointer and zero
// elsewhere.
func (m *Machine) push(callee *dblock) *activation {
	if len(m.frames) == cap(m.frames) {
		m.frames = append(m.frames, activation{})[:len(m.frames)]
	}
	m.frames = m.frames[:len(m.frames)+1]
	caller, f := &m.frames[len(m.frames)-2], &m.frames[len(m.frames)-1]
	f.blk, f.idx = callee, 0
	f.regs = [ir.NumRegs]int64{}
	copy(f.regs[ir.RegArg0:ir.RegArg0+ir.NumArgRegs], caller.regs[ir.RegArg0:])
	f.regs[ir.RegSP] = caller.regs[ir.RegSP]
	return f
}
