package matrix

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// poolCase is one factorization with its right-hand sides and the
// results of solving them serially.
type poolCase struct {
	f      Factorization
	bs     [][]float64
	lefts  []bool
	serial [][]float64
}

func newPoolCase(t *testing.T, s Solver, n int, seed int64) *poolCase {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	f, err := s.Factor(oracleBlock(t, r, n, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	c := &poolCase{f: f}
	for i := 0; i < 6; i++ {
		c.bs = append(c.bs, randomVec(r, n))
		c.lefts = append(c.lefts, i%2 == 1)
	}
	for i, b := range c.bs {
		x, err := f.Solve(b, nil, c.lefts[i])
		if err != nil {
			t.Fatal(err)
		}
		c.serial = append(c.serial, x)
	}
	return c
}

// TestConcurrentSolvesShareWorkspacesSafely runs solves of different
// orders on separate factorizations at once, so pooled work buffers
// change hands between sizes and goroutines; every result must be
// bit-identical to the serial run. Run it under -race.
func TestConcurrentSolvesShareWorkspacesSafely(t *testing.T) {
	var cases []*poolCase
	for i, n := range []int{7, 300, 2000} {
		cases = append(cases,
			newPoolCase(t, BiCGSTABSolver{}, n, int64(10*i+1)),
			newPoolCase(t, ILUSolver{}, n, int64(10*i+2)))
	}
	const rounds = 4
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for ci, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i, b := range c.bs {
					x, err := c.f.Solve(b, nil, c.lefts[i])
					if err != nil {
						errs[ci] = err
						return
					}
					for k := range x {
						if x[k] != c.serial[i][k] {
							errs[ci] = fmt.Errorf("case %d rhs %d round %d: x[%d] = %v, serial %v", ci, i, round, k, x[k], c.serial[i][k])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestSolveLeavesInputsAndResultsAlone checks that a solve reads b and
// x0 without writing them, and that its result is its own: a later
// solve, which reuses the pooled work buffers, leaves it unchanged.
func TestSolveLeavesInputsAndResultsAlone(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, s := range []Solver{BiCGSTABSolver{}, ILUSolver{}} {
		t.Run(s.Name(), func(t *testing.T) {
			n := 120
			f, err := s.Factor(oracleBlock(t, r, n, 0.05))
			if err != nil {
				t.Fatal(err)
			}
			b, x0 := randomVec(r, n), randomVec(r, n)
			bCopy, x0Copy := append([]float64(nil), b...), append([]float64(nil), x0...)
			x, err := f.Solve(b, x0, false)
			if err != nil {
				t.Fatal(err)
			}
			requireBits(t, "b after solve", b, bCopy)
			requireBits(t, "x0 after solve", x0, x0Copy)
			xCopy := append([]float64(nil), x...)
			for _, left := range []bool{false, true} {
				if _, err := f.Solve(randomVec(r, n), randomVec(r, n), left); err != nil {
					t.Fatal(err)
				}
			}
			requireBits(t, "earlier result after later solves", x, xCopy)
		})
	}
}

// TestSolveAllocationsIndependentOfOrder checks that a warmed solve
// allocates the same few objects whatever the system order: the work
// vectors come from the pool, so only the solution is new.
func TestSolveAllocationsIndependentOfOrder(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	for _, s := range []Solver{BiCGSTABSolver{}, ILUSolver{}} {
		for _, left := range []bool{false, true} {
			allocs := map[int]float64{}
			for _, n := range []int{200, 20000} {
				r := rand.New(rand.NewSource(int64(n)))
				f, err := s.Factor(oracleBlock(t, r, n, 0.05))
				if err != nil {
					t.Fatal(err)
				}
				b := randomVec(r, n)
				if _, err := f.Solve(b, nil, left); err != nil { // warm: transpose, splits, pool
					t.Fatal(err)
				}
				allocs[n] = testing.AllocsPerRun(20, func() {
					if _, err := f.Solve(b, nil, left); err != nil {
						t.Fatal(err)
					}
				})
			}
			if allocs[200] != allocs[20000] || allocs[200] > 3 {
				t.Errorf("%s left=%v: %v allocations per solve at n=200, %v at n=20000; want the same small count",
					s.Name(), left, allocs[200], allocs[20000])
			}
		}
	}
}
