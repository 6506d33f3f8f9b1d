package circuit

import (
	"fmt"
	"math"
)

// FastOp describes a RESET to the reduced model in terms of the aggregates
// the LADDER latency model is keyed on, rather than a full per-cell
// pattern.
type FastOp struct {
	// Row is the selected wordline index (0 = nearest the bitline driver).
	Row int
	// Cols are the selected bitline indices (0 = nearest the wordline
	// driver).
	Cols []int
	// WLLRS is the number of half-selected cells in LRS on the selected
	// wordline (the C_lrs content term, excluding the targets).
	WLLRS int
	// BLLRS is the number of half-selected cells in LRS on each selected
	// bitline. The paper assumes the worst case (all LRS) because bitline
	// content is not tracked; callers model that with N-1.
	BLLRS int
}

// FastModel solves the selected wordline and the selected bitlines as 1-D
// resistive ladders with half-selected cells lumped as shunt loads to the
// half-bias rail. Unselected lines are approximated as ideal rails at
// VBias, which is accurate because they are driven and carry little
// current. The wordline and bitline solves are coupled through the target
// cells by a damped fixed-point loop.
type FastModel struct {
	p          Params
	iterations int
}

// NewFastModel returns a reduced-model solver for the given parameters.
func NewFastModel(p Params) (*FastModel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &FastModel{p: p, iterations: 40}, nil
}

// spreadLRS marks `count` of the positions 0..n-1 not skipped as LRS,
// spread evenly, mirroring WordlinePattern's placement so that the fast
// model and MNA agree on geometry.
func spreadLRS(n, count int, skip func(int) bool) []bool {
	lrs := make([]bool, n)
	avail := make([]int, 0, n)
	for j := 0; j < n; j++ {
		if !skip(j) {
			avail = append(avail, j)
		}
	}
	if count > len(avail) {
		count = len(avail)
	}
	for k := 0; k < count; k++ {
		lrs[avail[k*len(avail)/count]] = true
	}
	return lrs
}

// DebugResult extends Result with internal node voltages for diagnostics
// and tests.
type DebugResult struct {
	Result
	// VWL is the solved selected-wordline node voltage profile.
	VWL []float64
	// VBLTarget is the solved bitline voltage at the target row, per
	// selected column.
	VBLTarget []float64
}

// SolveDebug runs Solve and additionally exposes the solved line
// profiles.
func (f *FastModel) SolveDebug(op FastOp) (*DebugResult, error) {
	res, vWL, vBL, err := f.solve(op)
	if err != nil {
		return nil, err
	}
	return &DebugResult{Result: *res, VWL: vWL, VBLTarget: vBL}, nil
}

// Solve computes the per-target voltage drops for the reduced model.
func (f *FastModel) Solve(op FastOp) (*Result, error) {
	res, _, _, err := f.solve(op)
	return res, err
}

func (f *FastModel) solve(op FastOp) (*Result, []float64, []float64, error) {
	n := f.p.N
	if op.Row < 0 || op.Row >= n {
		return nil, nil, nil, fmt.Errorf("circuit: selected row %d out of range 0..%d", op.Row, n-1)
	}
	if len(op.Cols) == 0 {
		return nil, nil, nil, fmt.Errorf("circuit: no selected columns")
	}
	if op.WLLRS < 0 || op.WLLRS > n-len(op.Cols) {
		return nil, nil, nil, fmt.Errorf("circuit: WLLRS %d out of range 0..%d", op.WLLRS, n-len(op.Cols))
	}
	if op.BLLRS < 0 || op.BLLRS > n-1 {
		return nil, nil, nil, fmt.Errorf("circuit: BLLRS %d out of range 0..%d", op.BLLRS, n-1)
	}

	// colOf maps a wordline node to its target index, -1 for a
	// half-selected cell.
	colOf := make([]int, n)
	for j := range colOf {
		colOf[j] = -1
	}
	for k, c := range op.Cols {
		if c < 0 || c >= n {
			return nil, nil, nil, fmt.Errorf("circuit: selected column %d out of range 0..%d", c, n-1)
		}
		colOf[c] = k
	}
	wlLRS := spreadLRS(n, op.WLLRS, func(j int) bool { return colOf[j] >= 0 })
	blLRS := spreadLRS(n, op.BLLRS, func(i int) bool { return i == op.Row })

	gWire := 1 / math.Max(f.p.RWire, 1e-9)
	gIn := 1 / math.Max(f.p.RIn, 1e-9)
	gOut := 1 / math.Max(f.p.ROut, 1e-9)

	// State: wordline node voltages, per-target bitline voltage at the
	// target row, and per-target drop.
	vWL := make([]float64, n)
	vBLAtTarget := make([]float64, len(op.Cols))
	vd := make([]float64, len(op.Cols))
	for k := range op.Cols {
		vBLAtTarget[k] = f.p.VWrite
		vd[k] = f.p.VWrite
	}

	// Every line is the same wire ladder: its off-diagonals and the wire
	// part of its diagonal are fixed, and only the driver and the cell
	// shunts are added on each pass.
	sub := make([]float64, n)
	sup := make([]float64, n)
	wireDiag := make([]float64, n)
	for j := 0; j < n; j++ {
		if j > 0 {
			sub[j] = -gWire
			wireDiag[j] += gWire
		}
		if j < n-1 {
			sup[j] = -gWire
			wireDiag[j] += gWire
		}
	}
	diag := make([]float64, n)
	rhs := make([]float64, n)

	for iter := 0; iter < f.iterations; iter++ {
		// --- Selected wordline ladder (driver to 0 V at node 0). ---
		copy(diag, wireDiag)
		clear(rhs)
		diag[0] += gIn // to 0 V rail; rhs term is zero
		for j := 0; j < n; j++ {
			if k := colOf[j]; k >= 0 {
				// Target cell: shunt to the bitline voltage seen last
				// iteration, linearized at the current drop.
				g := f.p.TargetConductance(vd[k])
				diag[j] += g
				rhs[j] += g * vBLAtTarget[k]
				continue
			}
			// Half-selected cell: shunt to the VBias rail.
			g := f.p.CellConductance(f.p.VBias-vWL[j], wlLRS[j])
			diag[j] += g
			rhs[j] += g * f.p.VBias
		}
		sol := SolveTridiagonal(sub, diag, sup, rhs)
		maxMove := 0.0
		for j := 0; j < n; j++ {
			nv := vWL[j] + 0.5*(sol[j]-vWL[j])
			if d := math.Abs(nv - vWL[j]); d > maxMove {
				maxMove = d
			}
			vWL[j] = nv
		}

		// --- Each selected bitline ladder (driver to VWrite at node 0). ---
		for k, c := range op.Cols {
			copy(diag, wireDiag)
			clear(rhs)
			diag[0] += gOut
			rhs[0] += gOut * f.p.VWrite
			// Half-selected cells along the bitline discharge toward the
			// VBias rail of their (unselected) wordlines.
			vbPrev := vBLAtTarget[k]
			for i := 0; i < n; i++ {
				if i == op.Row {
					g := f.p.TargetConductance(vd[k])
					diag[i] += g
					rhs[i] += g * vWL[c]
					continue
				}
				g := f.p.CellConductance(vbPrev-f.p.VBias, blLRS[i])
				diag[i] += g
				rhs[i] += g * f.p.VBias
			}
			// Only the target row's voltage feeds back.
			solveTridiagonalFrom(sub, diag, sup, rhs, op.Row)
			vb := vBLAtTarget[k] + 0.5*(rhs[op.Row]-vBLAtTarget[k])
			if d := math.Abs(vb - vBLAtTarget[k]); d > maxMove {
				maxMove = d
			}
			vBLAtTarget[k] = vb
			nvd := vb - vWL[c]
			if nvd < 0 {
				nvd = 0
			}
			vd[k] = nvd
		}
		if maxMove < 1e-7*f.p.VWrite && iter > 2 {
			res := &Result{Vd: vd, Iterations: iter + 1}
			finishResult(res)
			return res, vWL, vBLAtTarget, nil
		}
	}
	res := &Result{Vd: vd, Iterations: f.iterations}
	finishResult(res)
	return res, vWL, vBLAtTarget, nil
}

// SolveWorstBL is a convenience that assumes worst-case bitline content
// (all half-selected cells on the selected bitlines in LRS), which is what
// the LADDER latency model does since bitline content is untracked.
func (f *FastModel) SolveWorstBL(row int, cols []int, wlLRS int) (*Result, error) {
	return f.Solve(FastOp{Row: row, Cols: cols, WLLRS: wlLRS, BLLRS: f.p.N - 1})
}
