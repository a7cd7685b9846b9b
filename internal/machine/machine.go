package machine

import (
	"fmt"

	"repro/internal/alpha"
)

// Mode selects whether the boxed safety checks of Figure 3 are
// performed.
type Mode uint8

const (
	// Checked is the abstract machine: every load and store is subject
	// to the rd/wr checks, and a violation blocks execution.
	Checked Mode = iota
	// Unchecked is the "real DEC Alpha": no safety checks are
	// performed. (The simulator still refuses to corrupt its own host:
	// a wild access surfaces as a fault with Wild set, modeling the
	// kernel crash an uncertified extension could cause.)
	Unchecked
)

// State is the machine state (Σ, pc) of the paper: the register file
// and the memory pseudo-register.
type State struct {
	R   [alpha.NumRegs]uint64
	Mem *Memory
	PC  int
}

// Reg reads a register, mapping r31 to zero.
func (s *State) Reg(r alpha.Reg) uint64 {
	if r == alpha.RegZero {
		return 0
	}
	return s.R[r]
}

// SetReg writes a register, discarding writes to r31.
func (s *State) SetReg(r alpha.Reg, v uint64) {
	if r == alpha.RegZero {
		return
	}
	s.R[r] = v
}

// Result summarizes a completed execution.
type Result struct {
	// Ret is the value of r0 at RET (the return value under the
	// paper's calling convention).
	Ret uint64
	// Steps is the number of instructions retired.
	Steps int
	// Cycles is the simulated cycle count under the active cost model.
	Cycles int64
}

// ExecError describes a blocked or faulted execution.
type ExecError struct {
	PC   int
	Ins  alpha.Instr
	Err  error
	Wild bool // true when an Unchecked-mode run performed a wild access
}

// Error implements the error interface.
func (e *ExecError) Error() string {
	kind := "abstract machine blocked"
	if e.Wild {
		kind = "WILD ACCESS (kernel corruption)"
	}
	return fmt.Sprintf("machine: pc %d (%s): %s: %v", e.PC, e.Ins, kind, e.Err)
}

// Unwrap returns the underlying fault.
func (e *ExecError) Unwrap() error { return e.Err }

// ErrFuel is returned when an execution exceeds its step budget (which,
// for the loop-free programs of §3, can only mean a malformed program).
var ErrFuel = fmt.Errorf("machine: step budget exhausted")

// Tracer observes each instruction before it retires. The state may
// be inspected but must not be mutated.
type Tracer func(pc int, ins alpha.Instr, s *State)

// Interp executes prog from the given state until RET, running off the
// end of the program (treated as return, as the VC generator's
// "target one past the end" convention allows), a fault, or fuel
// exhaustion. The cost model cm may be nil, in which case cycles are
// not accounted.
func Interp(prog []alpha.Instr, s *State, mode Mode, cm *CostModel, fuel int) (Result, error) {
	return interp(prog, s, mode, cm, fuel, nil, noProfile{})
}

// InterpTraced is Interp with a per-instruction observer, used by the
// loader's -trace mode and by debugging tools.
func InterpTraced(prog []alpha.Instr, s *State, mode Mode, cm *CostModel, fuel int, trace Tracer) (Result, error) {
	return interp(prog, s, mode, cm, fuel, trace, noProfile{})
}

// InterpProfiled is Interp with per-PC cycle and visit attribution into
// prof (which must have been built for a program at least as long as
// prog; see NewProfile). The profiled interpreter is a separate
// compile-time instantiation of the same loop, so the unprofiled
// Interp path carries no profiler branch, pointer test, or allocation.
func InterpProfiled(prog []alpha.Instr, s *State, mode Mode, cm *CostModel, fuel int, prof *Profile) (Result, error) {
	return interp(prog, s, mode, cm, fuel, nil, prof)
}

// profSink receives per-retired-instruction attribution. It is a type
// parameter of interp, not an interface field: interp is instantiated
// with noProfile (the Interp/InterpTraced path) and with *Profile (the
// InterpProfiled path). As with the compiled runner's blockSink, Go
// compiles each instantiation per GC shape and calls the sink through
// a dictionary, so noProfile's empty note is still a call per retired
// instruction, not inlined away.
type profSink interface {
	note(pc int, cycles int64)
}

// noProfile is the sink the unprofiled instantiation uses: it records
// nothing.
type noProfile struct{}

func (noProfile) note(int, int64) {}

func interp[P profSink](prog []alpha.Instr, s *State, mode Mode, cm *CostModel, fuel int, trace Tracer, prof P) (Result, error) {
	var res Result
	for {
		if s.PC == len(prog) {
			// Fell off the end: treated as a return.
			res.Ret = s.R[0]
			return res, nil
		}
		if s.PC < 0 || s.PC > len(prog) {
			return res, &ExecError{s.PC, alpha.Instr{}, fmt.Errorf("pc out of range"), false}
		}
		if res.Steps >= fuel {
			return res, ErrFuel
		}
		ins := prog[s.PC]
		if trace != nil {
			trace(s.PC, ins, s)
		}
		res.Steps++
		taken := false

		switch ins.Op {
		case alpha.LDQ:
			addr := s.Reg(ins.Rb) + uint64(int64(ins.Disp))
			v, err := s.Mem.ReadQ(addr)
			if err != nil {
				return res, execFault(s.PC, ins, err, mode)
			}
			s.SetReg(ins.Ra, v)
		case alpha.STQ:
			addr := s.Reg(ins.Rb) + uint64(int64(ins.Disp))
			if err := s.Mem.WriteQ(addr, s.Reg(ins.Ra)); err != nil {
				return res, execFault(s.PC, ins, err, mode)
			}
		case alpha.LDA:
			s.SetReg(ins.Ra, s.Reg(ins.Rb)+uint64(int64(ins.Disp)))
		case alpha.ADDQ, alpha.SUBQ, alpha.MULQ, alpha.AND, alpha.BIS, alpha.XOR,
			alpha.SLL, alpha.SRL, alpha.CMPEQ, alpha.CMPULT, alpha.CMPULE:
			a := s.Reg(ins.Ra)
			var b uint64
			if ins.HasLit {
				b = uint64(ins.Lit)
			} else {
				b = s.Reg(ins.Rb)
			}
			s.SetReg(ins.Rc, aluOp(ins.Op, a, b))
		case alpha.BEQ, alpha.BNE, alpha.BGE, alpha.BLT, alpha.BR:
			v := s.Reg(ins.Ra)
			switch ins.Op {
			case alpha.BEQ:
				taken = v == 0
			case alpha.BNE:
				taken = v != 0
			case alpha.BGE:
				taken = int64(v) >= 0
			case alpha.BLT:
				taken = int64(v) < 0
			case alpha.BR:
				taken = true
			}
		case alpha.RET:
			var c int64
			if cm != nil {
				c = int64(cm.Ret)
			}
			res.Cycles += c
			prof.note(s.PC, c)
			res.Ret = s.R[0]
			return res, nil
		default:
			return res, &ExecError{s.PC, ins, fmt.Errorf("illegal instruction"), false}
		}

		var c int64
		if cm != nil {
			c = int64(cm.cost(ins, taken))
		}
		res.Cycles += c
		prof.note(s.PC, c)
		if taken {
			s.PC = ins.Target
		} else {
			s.PC++
		}
	}
}

func execFault(pc int, ins alpha.Instr, err error, mode Mode) error {
	wild := false
	if mode == Unchecked {
		if mf, ok := err.(*MemFault); ok && mf.Kind != FaultUnaligned {
			wild = true
		}
	}
	return &ExecError{pc, ins, err, wild}
}

func aluOp(op alpha.Op, a, b uint64) uint64 {
	switch op {
	case alpha.ADDQ:
		return a + b
	case alpha.SUBQ:
		return a - b
	case alpha.MULQ:
		return a * b
	case alpha.AND:
		return a & b
	case alpha.BIS:
		return a | b
	case alpha.XOR:
		return a ^ b
	case alpha.SLL:
		return a << (b & 63)
	case alpha.SRL:
		return a >> (b & 63)
	case alpha.CMPEQ:
		if a == b {
			return 1
		}
		return 0
	case alpha.CMPULT:
		if a < b {
			return 1
		}
		return 0
	case alpha.CMPULE:
		if a <= b {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("machine: aluOp on %v", op))
}
