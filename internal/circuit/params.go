// Package circuit models the electrical behavior of a 1S1R crossbar ReRAM
// mat during RESET operations. It provides two solvers:
//
//   - A full modified-nodal-analysis (MNA) solver over all 2·N² crossbar
//     nodes, with the nonlinear selector handled by damped fixed-point
//     conductance iteration and the linear system solved by Jacobi-
//     preconditioned conjugate gradients. This is the reference model,
//     mirroring the paper's circuit-level simulation (Section 5), and is
//     exact but expensive.
//
//   - A reduced "ladder network" model that solves only the selected
//     wordline and the selected bitlines as 1-D resistive ladders (Thomas
//     algorithm) with half-selected cells lumped as shunt loads to the
//     half-bias rail, coupled by a short fixed-point loop. It runs in O(N)
//     and is validated against the MNA solver in tests.
//
// Both produce the voltage drop Vd across the fully-selected (target)
// cells; package timing converts Vd into RESET latency.
package circuit

import (
	"errors"
	"fmt"
	"math"
)

// Params holds the crossbar electrical parameters (paper Table 1).
type Params struct {
	// N is the crossbar dimension (N x N cells).
	N int
	// SelectedCells is the number of fully-selected cells per RESET (bits
	// written simultaneously to one mat; 8 for a full byte, 4 for one
	// Split-reset phase).
	SelectedCells int
	// RLRS and RHRS are the cell resistances (ohms) at full write voltage
	// in the low- and high-resistance states.
	RLRS float64
	RHRS float64
	// Nonlinearity is the selector nonlinearity factor K = I(V)/I(V/2).
	Nonlinearity float64
	// RIn and ROut are the wordline and bitline driver resistances (ohms).
	RIn  float64
	ROut float64
	// RWire is the wire resistance (ohms) of one cell-to-cell segment.
	RWire float64
	// VWrite is the full write voltage applied across the selected
	// wordline/bitline pair (volts).
	VWrite float64
	// VBias is the half-select bias applied to unselected lines (volts).
	VBias float64
	// TargetRFactor scales the effective resistance of fully-selected
	// cells during RESET. A cell being RESET moves from RLRS toward RHRS
	// over the pulse, so the sustained current that sets the array's IR
	// operating point is below the initial LRS current; half-selected
	// cells are not switching and keep their static characteristics.
	// 1 models the pessimistic pulse-start instant.
	TargetRFactor float64
}

// DefaultParams returns the paper's Table 1 configuration: a 512x512
// crossbar with 8 selected cells, 10 kΩ LRS, 2 MΩ HRS, selector
// nonlinearity 200, 100 Ω drivers, 2.5 Ω wire segments, 3 V write voltage
// and 1.5 V half bias.
func DefaultParams() Params {
	return Params{
		N:             512,
		SelectedCells: 8,
		RLRS:          10e3,
		RHRS:          2e6,
		Nonlinearity:  200,
		RIn:           100,
		ROut:          100,
		RWire:         2.5,
		VWrite:        3.0,
		VBias:         1.5,
		TargetRFactor: 2.0,
	}
}

// Validate reports whether the parameters describe a physically meaningful
// crossbar.
func (p Params) Validate() error {
	switch {
	case p.N <= 0:
		return errors.New("circuit: N must be positive")
	case p.SelectedCells <= 0 || p.SelectedCells > p.N:
		return fmt.Errorf("circuit: SelectedCells %d out of range 1..%d", p.SelectedCells, p.N)
	case p.RLRS <= 0 || p.RHRS <= 0:
		return errors.New("circuit: cell resistances must be positive")
	case p.RHRS < p.RLRS:
		return errors.New("circuit: RHRS must be >= RLRS")
	case p.Nonlinearity < 1:
		return errors.New("circuit: selector nonlinearity must be >= 1")
	case p.RIn < 0 || p.ROut < 0 || p.RWire < 0:
		return errors.New("circuit: driver and wire resistances must be non-negative")
	case p.VWrite <= 0:
		return errors.New("circuit: VWrite must be positive")
	case p.VBias < 0 || p.VBias > p.VWrite:
		return fmt.Errorf("circuit: VBias %v must lie in [0, VWrite]", p.VBias)
	case p.TargetRFactor < 0:
		return fmt.Errorf("circuit: TargetRFactor %v must be non-negative", p.TargetRFactor)
	}
	return nil
}

// targetRFactor returns the effective target-cell resistance scaling,
// defaulting to the pessimistic 1 when unset.
func (p *Params) targetRFactor() float64 {
	if p.TargetRFactor <= 0 {
		return 1
	}
	return p.TargetRFactor
}

// TargetConductance returns the linearization conductance of a
// fully-selected cell under RESET.
func (p *Params) TargetConductance(v float64) float64 {
	return p.cellConductanceR(v, p.RLRS*p.targetRFactor())
}

// gamma returns the selector power-law exponent γ = log2(K), so that a cell
// current I ∝ |V|^γ satisfies I(V)/I(V/2) = K.
func (p *Params) gamma() float64 {
	return math.Log2(p.Nonlinearity)
}

// CellCurrent returns the current (amps) through a 1S1R cell with the given
// state resistance when v volts are applied across it.
//
// The selector I–V law is piecewise, continuous, and satisfies the
// datasheet definition I(VWrite)/I(VWrite/2) = K exactly:
//
//   - |v| ≤ VWrite/4: ohmic leakage with conductance 4/(R·K);
//   - VWrite/4 < |v| ≤ VWrite/2: a constant-current plateau at the
//     half-select leakage VWrite/(R·K) — a selector biased near its
//     threshold behaves as a current limiter, so the sneak through
//     half-selected cells does not quench as the selected line's
//     potential sags (this is what makes the wordline data pattern the
//     first-order content effect, per the paper's Figure 4b);
//   - |v| > VWrite/2: the power law I = (VWrite/R)·(|v|/VWrite)^γ with
//     γ = log2(K), reaching the nominal state resistance at full voltage.
func (p Params) CellCurrent(v float64, lrs bool) float64 {
	r := p.RHRS
	if lrs {
		r = p.RLRS
	}
	return p.cellCurrentR(v, r)
}

func (p Params) cellCurrentR(v, r float64) float64 {
	mag := math.Abs(v) / p.VWrite
	var i float64
	switch {
	case mag <= 0.25:
		i = math.Abs(v) * 4 / (r * p.Nonlinearity)
	case mag <= 0.5:
		i = p.VWrite / (r * p.Nonlinearity)
	default:
		i = p.VWrite / r * math.Pow(mag, p.gamma())
	}
	if v < 0 {
		return -i
	}
	return i
}

// CellConductance returns the effective conductance I(v)/v used in the
// fixed-point linearization. It never vanishes, keeping the nodal systems
// well conditioned.
func (p *Params) CellConductance(v float64, lrs bool) float64 {
	r := p.RHRS
	if lrs {
		r = p.RLRS
	}
	return p.cellConductanceR(v, r)
}

func (p *Params) cellConductanceR(v, r float64) float64 {
	mag := math.Abs(v) / p.VWrite
	switch {
	case mag <= 0.25:
		return 4 / (r * p.Nonlinearity)
	case mag <= 0.5:
		return 1 / (r * p.Nonlinearity * mag)
	default:
		return math.Pow(mag, p.gamma()-1) / r
	}
}
