package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapBasics(t *testing.T) {
	m := NewMap[int]()
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty map served a value")
	}
	if !m.Insert("a", 1) || !m.Insert("b", 2) {
		t.Fatal("insert of fresh keys failed")
	}
	if m.Insert("a", 9) {
		t.Fatal("duplicate insert succeeded")
	}
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v,%v after duplicate insert", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len %d", m.Len())
	}
	if keys := m.Keys(); len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys %v", keys)
	}
	if v, ok := m.Delete("a"); !ok || v != 1 {
		t.Fatalf("Delete(a) = %v,%v", v, ok)
	}
	if _, ok := m.Delete("a"); ok {
		t.Fatal("double delete succeeded")
	}
	if m.Len() != 1 {
		t.Fatalf("Len after delete %d", m.Len())
	}
}

func TestMapSet(t *testing.T) {
	m := NewMap[int]()
	if prev, replaced := m.Set("a", 1); replaced {
		t.Fatalf("Set on empty map replaced %v", prev)
	}
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v,%v after Set", v, ok)
	}
	if prev, replaced := m.Set("a", 2); !replaced || prev != 1 {
		t.Fatalf("Set over live key: prev %v, replaced %v", prev, replaced)
	}
	if v, _ := m.Get("a"); v != 2 {
		t.Fatalf("Get(a) = %v after overwrite", v)
	}
	if m.Len() != 1 {
		t.Fatalf("Len %d after overwrite", m.Len())
	}
}

// TestMapRangeSnapshot: a Range walk sees the copy published at call
// time, regardless of concurrent mutation.
func TestMapRangeSnapshot(t *testing.T) {
	m := NewMap[int]()
	for i := 0; i < 8; i++ {
		m.Insert(fmt.Sprintf("k%d", i), i)
	}
	seen := 0
	m.Range(func(key string, v int) bool {
		if seen == 0 {
			for i := 0; i < 8; i++ {
				m.Delete(fmt.Sprintf("k%d", i))
			}
		}
		seen++
		return true
	})
	if seen != 8 {
		t.Fatalf("walk saw %d entries, want the snapshot's 8", seen)
	}
}

// TestMapConcurrent hammers lock-free readers against writers under the
// race detector.
func TestMapConcurrent(t *testing.T) {
	m := NewMap[int]()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 16; i++ {
					m.Get(fmt.Sprintf("k%d", i))
				}
				m.Len()
				m.Range(func(string, int) bool { return true })
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				k := fmt.Sprintf("k%d", (round+w)%16)
				if !m.Insert(k, round) {
					m.Delete(k)
				}
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestActorFIFO: commands execute in submission order, exactly once.
func TestActorFIFO(t *testing.T) {
	a := NewActor(64)
	var got []int
	for i := 0; i < 32; i++ {
		i := i
		if err := a.Submit(func() { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Do(func() {}); err != nil { // barrier: all prior commands ran
		t.Fatal(err)
	}
	if len(got) != 32 {
		t.Fatalf("ran %d commands", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("command order %v", got)
		}
	}
	a.Close()
}

// TestActorBackpressure: a full mailbox rejects Submit with
// ErrMailboxFull and unblocks once the consumer drains.
func TestActorBackpressure(t *testing.T) {
	a := NewActor(2)
	gate := make(chan struct{})
	if err := a.Submit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	// The first command may already be executing; fill the queue until
	// rejection, which must happen within capacity+1 submissions.
	full := false
	for i := 0; i < 4 && !full; i++ {
		if err := a.Submit(func() {}); err != nil {
			if !errors.Is(err, ErrMailboxFull) {
				t.Fatalf("err %v", err)
			}
			full = true
		}
	}
	if !full {
		t.Fatal("mailbox never filled")
	}
	if d := a.Depth(); d < 2 {
		t.Fatalf("depth %d with a full mailbox", d)
	}
	close(gate)
	// SubmitCtx blocks until space frees, then lands.
	ran := make(chan struct{})
	if err := a.SubmitCtx(context.Background(), func() { close(ran) }); err != nil {
		t.Fatal(err)
	}
	<-ran
	a.Close()
}

// TestActorSubmitCtxCancel: a cancelled context aborts a blocked
// SubmitCtx instead of deadlocking.
func TestActorSubmitCtxCancel(t *testing.T) {
	a := NewActor(1)
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	_ = a.Submit(func() { close(started); <-gate })
	// Fill the one queue slot only once the gated command is executing:
	// filled while it still sits in the queue, the slot frees as soon as
	// the run loop picks it up and the SubmitCtx below gets in.
	<-started
	for a.Submit(func() {}) == nil {
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- a.SubmitCtx(ctx, func() {}) }()
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SubmitCtx did not honour cancellation")
	}
}

// TestActorCloseDrains: every command accepted before Close runs before
// Close returns; commands after Close are rejected with ErrClosed.
func TestActorCloseDrains(t *testing.T) {
	a := NewActor(128)
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		if err := a.Submit(func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	if got := ran.Load(); got != 100 {
		t.Fatalf("drained %d of 100 commands", got)
	}
	if err := a.Submit(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Submit err %v", err)
	}
	if err := a.Do(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Do err %v", err)
	}
	if err := a.SubmitCtx(context.Background(), func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close SubmitCtx err %v", err)
	}
	a.Close() // idempotent
}

// TestActorPanicContainment: a panicking command neither kills the run
// loop nor hangs the Do caller; OnPanic observes the value.
func TestActorPanicContainment(t *testing.T) {
	a := NewActor(8)
	var caught atomic.Int64
	a.OnPanic = func(v any) { caught.Add(1) }
	if err := a.Do(func() { panic("boom") }); err == nil {
		t.Fatal("Do swallowed the panic")
	}
	if err := a.Submit(func() { panic("async boom") }); err != nil {
		t.Fatal(err)
	}
	// The loop must still be alive and processing.
	ok := false
	if err := a.Do(func() { ok = true }); err != nil || !ok {
		t.Fatalf("run loop dead after panic: %v", err)
	}
	if caught.Load() != 2 {
		t.Fatalf("OnPanic saw %d panics, want 2", caught.Load())
	}
	a.Close()
}

// TestActorConcurrentSubmitClose races closers against submitters: no
// send on a closed channel, no deadlock, every accepted command runs.
func TestActorConcurrentSubmitClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		a := NewActor(16)
		var accepted, ran atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if a.Submit(func() { ran.Add(1) }) == nil {
						accepted.Add(1)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.Close()
		}()
		wg.Wait()
		a.Close()
		if accepted.Load() != ran.Load() {
			t.Fatalf("accepted %d but ran %d", accepted.Load(), ran.Load())
		}
	}
}
