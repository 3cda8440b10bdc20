package main

import (
	"fmt"
	"math"
	"math/rand"

	"mosaicsim/internal/interp"
	"mosaicsim/internal/workloads"
)

// The simulation workloads run the built-in kernel sources over inputs the
// benchmark generates from its seed, at the built-in Small sizes. Each
// Setup checks the traced run's output against a Go reference over every
// output element, so a wrong interpreter result fails the trace stage.

const (
	sgemmDim     = 40      // SGEMM Small: 40x40 matrices
	spmvRows     = 16000   // SPMV Small: rows
	spmvCols     = 1 << 22 // x-vector length, far past the modelled LLC
	spmvRowNNZ   = 12
	checkTolF32  = 1e-3
	checkRelF64  = 1e-9
	seededSuffix = "-seeded"
)

// seededSGEMM is SGEMM over seed-drawn A and B. A fresh value is returned on
// every call, so its compile cache starts cold.
func seededSGEMM(seed int64) *workloads.Workload {
	return &workloads.Workload{
		Name: "sgemm" + seededSuffix,
		Src:  workloads.SGEMM().Src,
		Setup: func(mem *interp.Memory, _ workloads.Scale) workloads.Instance {
			n := sgemmDim
			r := rand.New(rand.NewSource(seed))
			a := make([]float32, n*n)
			b := make([]float32, n*n)
			for i := range a {
				a[i] = r.Float32()
				b[i] = r.Float32()
			}
			pa, pb := mem.AllocF32(a), mem.AllocF32(b)
			pc := mem.Alloc(int64(n*n)*4, 64)
			return workloads.Instance{
				Args: []uint64{pa, pb, pc, uint64(n)},
				Check: func(mem *interp.Memory) error {
					got := mem.F32Slice(pc, n*n)
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							var want float32
							for k := 0; k < n; k++ {
								want += a[i*n+k] * b[k*n+j]
							}
							if d := math.Abs(float64(got[i*n+j] - want)); d > checkTolF32 {
								return fmt.Errorf("C[%d][%d] = %g, want %g", i, j, got[i*n+j], want)
							}
						}
					}
					return nil
				},
			}
		},
	}
}

// seededSPMV is CSR SPMV over a seed-drawn matrix and x vector.
func seededSPMV(seed int64) *workloads.Workload {
	return &workloads.Workload{
		Name: "spmv" + seededSuffix,
		Src:  workloads.SPMV().Src,
		Setup: func(mem *interp.Memory, _ workloads.Scale) workloads.Instance {
			r := rand.New(rand.NewSource(seed))
			rowptr := make([]int64, spmvRows+1)
			cols := make([]int64, 0, spmvRows*spmvRowNNZ)
			vals := make([]float64, 0, spmvRows*spmvRowNNZ)
			for row := 0; row < spmvRows; row++ {
				rowptr[row] = int64(len(cols))
				for k := 0; k < spmvRowNNZ; k++ {
					cols = append(cols, int64(r.Intn(spmvCols)))
					vals = append(vals, r.Float64())
				}
			}
			rowptr[spmvRows] = int64(len(cols))
			x := make([]float64, spmvCols)
			for i := range x {
				x[i] = r.Float64()
			}
			pr, pc, pv, px := mem.AllocI64(rowptr), mem.AllocI64(cols), mem.AllocF64(vals), mem.AllocF64(x)
			py := mem.Alloc(int64(spmvRows)*8, 64)
			return workloads.Instance{
				Args: []uint64{pr, pc, pv, px, py, uint64(spmvRows)},
				Check: func(mem *interp.Memory) error {
					got := mem.F64Slice(py, spmvRows)
					for row := range got {
						want := 0.0
						for e := rowptr[row]; e < rowptr[row+1]; e++ {
							want += vals[e] * x[cols[e]]
						}
						if d := math.Abs(got[row] - want); d > checkRelF64*math.Max(1, math.Abs(want)) {
							return fmt.Errorf("y[%d] = %g, want %g", row, got[row], want)
						}
					}
					return nil
				},
			}
		},
	}
}
