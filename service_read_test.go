package ingrass

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ingrass/internal/service"
)

// hammerRHS is a deterministic mean-free right-hand side.
func hammerRHS(n, seed int) []float64 {
	b := make([]float64, n)
	var mean float64
	for i := range b {
		b[i] = math.Sin(float64(i*(seed%7+1) + seed))
		mean += b[i]
	}
	mean /= float64(n)
	for i := range b {
		b[i] -= mean
	}
	return b
}

func basis(n, u, v int) []float64 {
	b := make([]float64, n)
	b[u], b[v] = 1, -1
	return b
}

// sameBits reports whether a and b are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDirectReadHammer is the -race stress of the read paths: 16 goroutines
// mix Solve, EffectiveResistance, SolveBatch and EffectiveResistanceBatch
// while a writer streams edge insertions underneath, bumping generations.
// Every answer must be bit-identical to SolveInto on the snapshot of the
// generation that served it. The service retains every generation the
// writer can publish, so verification never races snapshot eviction.
func TestDirectReadHammer(t *testing.T) {
	const maxWrites = 400
	svc, err := NewService(serviceGrid(t, 16, 16), ServiceOptions{
		Options:         Options{InitialDensity: 0.1, Seed: 1},
		MaxBatch:        4,
		RetainSnapshots: maxWrites + 1,
		Batch:           BatchOptions{MaxBlock: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	n := svc.NumNodes()
	ctx := context.Background()

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < maxWrites; i++ {
			select {
			case <-stop:
				return
			default:
			}
			u, v := (i*37)%n, (i*101+5)%n
			if u == v {
				continue
			}
			if _, err := svc.AddEdges(ctx, []Edge{{U: u, V: v, W: 1 + float64(i%7)}}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// solveAt is the reference: SolveInto on the snapshot of gen.
	solveAt := func(gen uint64, b []float64, opts SolveOptions) ([]float64, service.SolveStats, bool) {
		snap, ok := svc.eng.At(gen)
		if !ok {
			t.Errorf("generation %d served an answer but is not retained", gen)
			return nil, service.SolveStats{}, false
		}
		x := make([]float64, n)
		st, err := snap.SolveInto(ctx, x, b, opts.internal())
		if err != nil {
			t.Errorf("reference solve at generation %d: %v", gen, err)
			return nil, st, false
		}
		return x, st, true
	}
	resistanceAt := func(gen uint64, u, v int) (float64, bool) {
		x, _, ok := solveAt(gen, basis(n, u, v), SolveOptions{})
		if !ok {
			return 0, false
		}
		return x[u] - x[v], true
	}

	firstGen := svc.Generation()
	var sawNewGen atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for it := 0; it < 12; it++ {
				seed := id*100 + it
				u, v := (id*7+it)%n, (id*13+it*3+1)%n
				if u == v {
					v = (v + 1) % n
				}
				var gen uint64
				switch it % 4 {
				case 0:
					b := hammerRHS(n, seed)
					x, st, err := svc.Solve(ctx, b, SolveOptions{})
					if err != nil || !st.Converged {
						t.Errorf("goroutine %d iter %d: Solve err=%v stats=%+v", id, it, err, st)
						return
					}
					gen = st.Generation
					want, wst, ok := solveAt(gen, b, SolveOptions{})
					if !ok {
						return
					}
					if !sameBits(x, want) || st.Iterations != wst.Iterations {
						t.Errorf("goroutine %d iter %d: Solve differs from SolveInto at generation %d", id, it, gen)
						return
					}
				case 1:
					r, rgen, err := svc.EffectiveResistance(ctx, u, v)
					if err != nil {
						t.Errorf("goroutine %d iter %d: EffectiveResistance: %v", id, it, err)
						return
					}
					gen = rgen
					want, ok := resistanceAt(gen, u, v)
					if !ok {
						return
					}
					if math.Float64bits(r) != math.Float64bits(want) {
						t.Errorf("goroutine %d iter %d: resistance %v, SolveInto gives %v at generation %d", id, it, r, want, gen)
						return
					}
				case 2:
					bs := [][]float64{hammerRHS(n, seed), hammerRHS(n, seed+1), hammerRHS(n, seed+2)}
					opts := SolveOptions{Tol: 1e-7}
					res, bgen, err := svc.SolveBatch(ctx, bs, opts)
					if err != nil {
						t.Errorf("goroutine %d iter %d: SolveBatch: %v", id, it, err)
						return
					}
					gen = bgen
					for j, r := range res {
						want, wst, ok := solveAt(gen, bs[j], opts)
						if !ok {
							return
						}
						if r.Err != nil || !sameBits(r.X, want) || r.Stats.Iterations != wst.Iterations {
							t.Errorf("goroutine %d iter %d column %d: SolveBatch differs from SolveInto at generation %d (err %v)", id, it, j, gen, r.Err)
							return
						}
					}
				case 3:
					pairs := []Pair{{U: u, V: v}, {U: v, V: u}, {U: u, V: u}}
					res, pgen, err := svc.EffectiveResistanceBatch(ctx, pairs)
					if err != nil {
						t.Errorf("goroutine %d iter %d: EffectiveResistanceBatch: %v", id, it, err)
						return
					}
					gen = pgen
					for j, r := range res {
						if r.Err != nil {
							t.Errorf("goroutine %d iter %d pair %d: %v", id, it, j, r.Err)
							return
						}
						want := 0.0
						if r.U != r.V {
							var ok bool
							if want, ok = resistanceAt(gen, r.U, r.V); !ok {
								return
							}
						}
						if math.Float64bits(r.Resistance) != math.Float64bits(want) {
							t.Errorf("goroutine %d iter %d pair %d: resistance %v, SolveInto gives %v at generation %d", id, it, j, r.Resistance, want, gen)
							return
						}
					}
				}
				if gen != firstGen {
					sawNewGen.Store(true)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-writerDone
	if !sawNewGen.Load() {
		t.Log("no answer came from a later generation (writer too slow?)")
	}
	if st := svc.Stats(); st.RequestsCoalesced != 0 {
		t.Fatalf("RequestsCoalesced = %d, want 0", st.RequestsCoalesced)
	}
}

// TestServiceIgnoresRetiredBatchOptions: BatchOptions.Window and
// CoalesceSingles configured the retired scheduler that coalesced
// concurrent single solves. Older callers still set them; NewService
// accepts them, every single solve runs on its caller's goroutine with the
// same answer as SolveInto, and nothing is reported as coalesced.
func TestServiceIgnoresRetiredBatchOptions(t *testing.T) {
	svc, err := NewService(serviceGrid(t, 8, 8), ServiceOptions{
		Options: Options{InitialDensity: 0.1, Seed: 1},
		Batch:   BatchOptions{Window: time.Second, CoalesceSingles: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	n := svc.NumNodes()
	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b := hammerRHS(n, c)
			x, _, err := svc.Solve(context.Background(), b, SolveOptions{})
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			want := make([]float64, n)
			if _, err := svc.SolveInto(context.Background(), want, b, SolveOptions{}); err != nil {
				t.Errorf("client %d: SolveInto: %v", c, err)
				return
			}
			if !sameBits(x, want) {
				t.Errorf("client %d: Solve differs from SolveInto", c)
			}
		}(c)
	}
	wg.Wait()
	st := svc.Stats()
	if st.RequestsCoalesced != 0 || st.BatchesFormed != 0 {
		t.Fatalf("stats after single solves: %d coalesced, %d blocks; want 0, 0", st.RequestsCoalesced, st.BatchesFormed)
	}
	if st.Solves != 2*clients {
		t.Fatalf("%d solves recorded, want %d", st.Solves, 2*clients)
	}
}
