package agent

import (
	"math/bits"

	"taskalloc/internal/noise"
	"taskalloc/internal/rng"
)

// antBatch is the struct-of-arrays form of Algorithm Ant: the per-ant
// registers of n automata live in contiguous typed slices, and StepRange
// advances a whole index range with no interface dispatch. The decision
// logic and RNG draw sequence mirror Ant.Step exactly (the colony
// equivalence tests hold the two paths bit-identical); the two constant
// Bernoulli coins are precompiled to integer cutoffs, and every draw —
// including the reservoir's bounded Intn — is written out inline against
// a local copy of the RNG state, stored back once per range. The copy
// is not register-resident: the pointer-receiver rng.Uint64 takes its
// address, so the four xoshiro words sit in StepRange's stack frame and
// each draw loads and stores them there (go build -gcflags=-S shows
// st at fixed SP offsets).
type antBatch struct {
	k      int
	pause  coin // cs·γ temporary drop-out
	leave  coin // γ/cd permanent leave
	cur    []int32
	assign []int32
	s1     []noise.Signal // ant i's register is s1[i*k : (i+1)*k]
}

func newAntBatch(n, k int, p Params) *antBatch {
	if k <= 0 {
		panic("agent: newAntBatch needs k >= 1")
	}
	b := &antBatch{
		k:      k,
		pause:  makeCoin(p.Cs * p.Gamma),
		leave:  makeCoin(p.Gamma / p.Cd),
		cur:    make([]int32, n),
		assign: make([]int32, n),
		s1:     make([]noise.Signal, n*k),
	}
	for i := 0; i < n; i++ {
		b.Reset(i, Idle)
	}
	return b
}

// StepRange implements Batch.
func (b *antBatch) StepRange(t uint64, lo, hi int, fb []BatchTaskFeedback, r *rng.Rng, counts []int) uint64 {
	k := b.k
	assign, curArr, s1 := b.assign, b.cur, b.s1
	st := *r // a stack copy of the xoshiro state, stored back at the end
	var switches uint64

	if t%2 == 1 {
		// First sub-round: record s1, maybe pause. Idle-count increments
		// (the common case) accumulate in a register and land in
		// counts[0] once at the end.
		pause := b.pause
		idles := 0
		base := lo * k
		for i := lo; i < hi; i++ {
			cur := assign[i]
			curArr[i] = cur
			if cur == Idle {
				for j := 0; j < k; j++ {
					f := &fb[j]
					sig := f.Value
					if !f.Det {
						sig = noise.Overload
						if st.Uint64()>>11 < f.Cut {
							sig = noise.Lack
						}
					}
					s1[base+j] = sig
				}
				idles++ // stays idle; no switch
				base += k
				continue
			}
			f := &fb[cur]
			sig := f.Value
			if !f.Det {
				sig = noise.Overload
				if st.Uint64()>>11 < f.Cut {
					sig = noise.Lack
				}
			}
			s1[base+int(cur)] = sig
			base += k
			if pause.det == 0 && st.Uint64()>>11 < pause.cut || pause.det > 0 {
				assign[i] = Idle
				idles++
				switches++
			} else {
				counts[cur+1]++
			}
		}
		counts[0] += idles
		*r = st
		return switches
	}

	// Second sub-round: decide using both samples.
	leave := b.leave
	idles := 0
	base := lo * k
	for i := lo; i < hi; i++ {
		cur := curArr[i]
		if cur == Idle {
			// Reservoir-sample a uniform task among {j : s1=s2=Lack}. An
			// ant with cur == Idle necessarily still has assign == Idle.
			count := uint64(0)
			choice := Idle
			for j := 0; j < k; j++ {
				if s1[base+j] != noise.Lack {
					continue
				}
				f := &fb[j]
				if f.Det {
					if f.Value != noise.Lack {
						continue
					}
				} else if st.Uint64()>>11 >= f.Cut {
					continue
				}
				count++
				// Inline Lemire bounded draw (same draw sequence as
				// rng.Intn, kept call-free by bits.Mul64).
				x := st.Uint64()
				idx, frac := bits.Mul64(x, count)
				if frac < count {
					thresh := -count % count
					for frac < thresh {
						x = st.Uint64()
						idx, frac = bits.Mul64(x, count)
					}
				}
				if idx == 0 {
					choice = int32(j)
				}
			}
			assign[i] = choice
			base += k
			if choice != Idle {
				counts[choice+1]++
				switches++
			} else {
				idles++
			}
			continue
		}
		old := assign[i]
		f := &fb[cur]
		s2 := f.Value
		if !f.Det {
			s2 = noise.Overload
			if st.Uint64()>>11 < f.Cut {
				s2 = noise.Lack
			}
		}
		if s1[base+int(cur)] == noise.Overload && s2 == noise.Overload &&
			(leave.det == 0 && st.Uint64()>>11 < leave.cut || leave.det > 0) {
			assign[i] = Idle
			idles++
			if old != Idle {
				switches++
			}
		} else {
			assign[i] = cur
			counts[cur+1]++
			if old != cur {
				switches++
			}
		}
		base += k
	}
	counts[0] += idles
	*r = st
	return switches
}

// Assignment implements Batch.
func (b *antBatch) Assignment(i int) int32 { return b.assign[i] }

// Reset implements Batch, mirroring Ant.Reset.
func (b *antBatch) Reset(i int, a int32) {
	b.assign[i] = a
	b.cur[i] = a
	s1 := b.s1[i*b.k : (i+1)*b.k]
	for j := range s1 {
		s1[j] = noise.Lack
	}
}
