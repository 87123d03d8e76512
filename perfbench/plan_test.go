package main

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"communix/internal/ids"
	"communix/internal/sig"
	"communix/internal/sig/sigtest"
	"communix/internal/store"
)

func TestPlannerRules(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := newPlanner(2)
	a := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 1, 5, 8)
	b := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 2, 5, 8)
	c := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 3, 5, 8)
	// adj shares one top frame with a, so it is adjacent to it.
	adj := sig.New(sig.ThreadSpec{Outer: a.Threads[0].Outer, Inner: c.Threads[0].Inner}, c.Threads[1])
	for i, step := range []struct {
		user ids.UserID
		s    *sig.Signature
		want verdict
	}{
		{1, a, vAccept},
		{2, a, vDuplicate},  // another user re-uploads it
		{1, adj, vAdjacent}, // same user, partial top overlap
		{2, adj, vAccept},   // adjacency is per user
		{1, b, vAccept},
		{1, c, vOverLimit}, // third signature of a user with a limit of 2
		{3, c, vAccept},    // a rejected signature is still new to others
	} {
		if got := p.admit(step.user, step.s); got != step.want {
			t.Errorf("step %d: %s, want %s", i, got, step.want)
		}
	}
}

// TestPlanMatchesStore feeds one planned stream to the planner and to a
// real store: every verdict must agree, which is what lets the ingest
// phase check the server's answers against the plan.
func TestPlanMatchesStore(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	st := store.New(store.Config{Clock: pinnedClock})
	p := newPlanner(store.DefaultMaxPerDay)
	var sent []*sig.Signature
	var sentBy []ids.UserID
	var counts [4]int
	for i := 0; i < 3000; i++ {
		user := ids.UserID(1 + r.Intn(150))
		var s *sig.Signature
		switch x := r.Float64(); {
		case x < 0.1 && len(sent) > 0:
			s = sent[r.Intn(len(sent))]
		case x < 0.15 && len(sent) > 0:
			// Partial top overlap with what the same user sent before.
			j := r.Intn(len(sent))
			prev := sent[j]
			user = sentBy[j]
			fresh := sigtest.DistinctTops(r, sigtest.DefaultVocabulary, 10_000+i, 5, 8)
			s = sig.New(sig.ThreadSpec{Outer: prev.Threads[0].Outer, Inner: fresh.Threads[0].Inner}, fresh.Threads[1])
		default:
			s = sigtest.DistinctTops(r, sigtest.DefaultVocabulary, i, 5, 8)
		}
		sent = append(sent, s)
		sentBy = append(sentBy, user)
		want := p.admit(user, s)
		counts[want]++
		added, err := st.Add(user, s)
		got := vAccept
		switch {
		case errors.Is(err, store.ErrRateLimited):
			got = vOverLimit
		case errors.Is(err, store.ErrAdjacent):
			got = vAdjacent
		case err != nil:
			t.Fatal(err)
		case !added:
			got = vDuplicate
		}
		if got != want {
			t.Fatalf("upload %d by user %d: store says %s, plan says %s", i, user, got, want)
		}
	}
	for v, n := range counts {
		if n == 0 {
			t.Errorf("the stream never produced a %s verdict", verdict(v))
		}
	}
}

func TestOpenLoopKeepsItsSchedule(t *testing.T) {
	const n = 10
	interval := 5 * time.Millisecond
	start := time.Now().Add(interval)
	var dues []time.Time
	late := openLoop(start, interval, n, func(i int, due time.Time) {
		dues = append(dues, due)
		if i == 2 {
			// A stalled generator: the ticks after it fire late, but
			// they stay due at their scheduled times.
			time.Sleep(4 * interval)
		}
	})
	for i, due := range dues {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Errorf("tick %d due at +%v, want +%v", i, due.Sub(start), want.Sub(start))
		}
	}
	if len(late) != n {
		t.Fatalf("%d lateness samples", len(late))
	}
	if late[3] < float64(2*interval)/1e6 {
		t.Errorf("tick 3 after a 4-interval stall reports %.2fms late", late[3])
	}
	if late[n-1] > late[3] {
		t.Errorf("the loop did not catch up: %.2fms late at the end", late[n-1])
	}
}
