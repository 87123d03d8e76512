package store

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"communix/internal/ids"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
)

// BenchmarkAdd measures server-side validation + insertion (fresh user
// per add, so the rate limit never trips and adjacency state stays
// realistic). The signatures are generated before the timer starts.
func BenchmarkAdd(b *testing.B) {
	st := New(Config{MaxPerDay: 1 << 30})
	r := rand.New(rand.NewSource(1))
	sigs := make([]*sig.Signature, b.N)
	for i := range sigs {
		sigs[i] = sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, s := range sigs {
		if ok, err := st.Add(ids.UserID(i+1), s); !ok || err != nil {
			b.Fatalf("add %d: %v %v", i, ok, err)
		}
	}
}

// BenchmarkAddSameUser measures the per-user adjacency scan as one user's
// accepted set grows (bounded by the rate limit in production). Each
// iteration uploads a fresh signature, so it passes the duplicate check,
// and the signature shares one top frame with only the user's newest
// prior one: the scan walks all prior signatures before rejecting it as
// adjacent. A rejection leaves the user's state unchanged, so every
// iteration scans exactly prior signatures.
func BenchmarkAddSameUser(b *testing.B) {
	for _, prior := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("prior=%d", prior), func(b *testing.B) {
			st := New(Config{MaxPerDay: 1 << 30})
			r := rand.New(rand.NewSource(2))
			var last *sig.Signature
			for i := 0; i < prior; i++ {
				last = sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)
				if ok, err := st.Add(1, last); !ok || err != nil {
					b.Fatal(err)
				}
			}
			probes := make([]*sig.Signature, b.N)
			for i := range probes {
				p := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, prior+i, 6, 9)
				outer := p.Threads[0].Outer
				outer[len(outer)-1] = last.Threads[0].Outer.Top()
				probes[i] = p
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, p := range probes {
				if _, err := st.Add(1, p); !errors.Is(err, ErrAdjacent) {
					b.Fatalf("probe: %v, want ErrAdjacent", err)
				}
			}
		})
	}
}

// BenchmarkGet measures the incremental and full fetch paths against a
// populated database — the Figure 2 hot path.
func BenchmarkGet(b *testing.B) {
	for _, dbSize := range []int{100, 1000, 10000} {
		st := New(Config{MaxPerDay: 1 << 30})
		r := rand.New(rand.NewSource(3))
		for i := 0; i < dbSize; i++ {
			if ok, err := st.Add(ids.UserID(i+1), sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 6, 9)); !ok || err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("full/db=%d", dbSize), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sigs, _ := st.Get(0)
				if len(sigs) != dbSize {
					b.Fatal("bad size")
				}
			}
		})
		b.Run(fmt.Sprintf("incremental/db=%d", dbSize), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sigs, next := st.Get(dbSize + 1)
				if len(sigs) != 0 || next != dbSize+1 {
					b.Fatal("bad incremental")
				}
			}
		})
	}
}
