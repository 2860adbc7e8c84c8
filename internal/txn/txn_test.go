package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/relalg"
)

func TestCompatMatrix(t *testing.T) {
	type row struct {
		a, b LockMode
		want bool
	}
	cases := []row{
		{LockIS, LockIS, true}, {LockIS, LockIX, true}, {LockIS, LockS, true}, {LockIS, LockX, false},
		{LockIX, LockIS, true}, {LockIX, LockIX, true}, {LockIX, LockS, false}, {LockIX, LockX, false},
		{LockS, LockIS, true}, {LockS, LockIX, false}, {LockS, LockS, true}, {LockS, LockX, false},
		{LockX, LockIS, false}, {LockX, LockIX, false}, {LockX, LockS, false}, {LockX, LockX, false},
	}
	for _, c := range cases {
		if got := compatible(c.a, c.b); got != c.want {
			t.Errorf("compatible(%s,%s)=%v want %v", c.a, c.b, got, c.want)
		}
		if got := compatible(c.b, c.a); got != c.want {
			t.Errorf("matrix not symmetric at (%s,%s)", c.b, c.a)
		}
	}
}

func TestSupremum(t *testing.T) {
	cases := []struct{ a, b, want LockMode }{
		{LockNone, LockS, LockS},
		{LockIS, LockIX, LockIX},
		{LockIS, LockS, LockS},
		{LockIX, LockS, LockX}, // no SIX: escalate
		{LockS, LockX, LockX},
		{LockIX, LockX, LockX},
		{LockS, LockS, LockS},
	}
	for _, c := range cases {
		if got := supremum(c.a, c.b); got != c.want {
			t.Errorf("supremum(%s,%s)=%s want %s", c.a, c.b, got, c.want)
		}
		if got := supremum(c.b, c.a); got != c.want {
			t.Errorf("supremum not commutative at (%s,%s)", c.b, c.a)
		}
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	if err := t1.Lock("r", LockS); err != nil {
		t.Fatal(err)
	}
	if err := t2.Lock("r", LockS); err != nil {
		t.Fatal(err)
	}
	m.Commit(t1, nil)
	m.Commit(t2, nil)
}

func TestExclusiveBlocks(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	if err := t1.Lock("r", LockX); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() {
		acquired <- t2.Lock("r", LockX)
	}()
	select {
	case <-acquired:
		t.Fatal("t2 should block while t1 holds X")
	case <-time.After(20 * time.Millisecond):
	}
	m.Commit(t1, nil)
	if err := <-acquired; err != nil {
		t.Fatal(err)
	}
	m.Commit(t2, nil)
}

func TestReacquireIsNoop(t *testing.T) {
	m := NewManager()
	t1 := m.Begin()
	for i := 0; i < 3; i++ {
		if err := t1.Lock("r", LockS); err != nil {
			t.Fatal(err)
		}
	}
	if t1.HeldMode("r") != LockS {
		t.Fatal("mode")
	}
	m.Commit(t1, nil)
}

func TestUpgradeSToX(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	t1.Lock("r", LockS)
	t2.Lock("r", LockS)
	done := make(chan error, 1)
	go func() { done <- t1.Lock("r", LockX) }()
	select {
	case <-done:
		t.Fatal("upgrade should wait for t2's S")
	case <-time.After(20 * time.Millisecond):
	}
	m.Commit(t2, nil)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if t1.HeldMode("r") != LockX {
		t.Fatalf("held %s", t1.HeldMode("r"))
	}
	m.Commit(t1, nil)
}

func TestUpgradeBeatsNewRequests(t *testing.T) {
	m := NewManager()
	holder, upgrader, newcomer := m.Begin(), m.Begin(), m.Begin()
	holder.Lock("r", LockS)
	upgrader.Lock("r", LockS)

	upDone := make(chan error, 1)
	go func() { upDone <- upgrader.Lock("r", LockX) }()
	time.Sleep(10 * time.Millisecond) // let the upgrade enqueue
	newDone := make(chan error, 1)
	go func() { newDone <- newcomer.Lock("r", LockX) }()
	time.Sleep(10 * time.Millisecond)

	m.Commit(holder, nil)
	select {
	case err := <-upDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-newDone:
		t.Fatal("newcomer overtook the upgrade")
	}
	m.Commit(upgrader, nil)
	if err := <-newDone; err != nil {
		t.Fatal(err)
	}
	m.Commit(newcomer, nil)
}

func TestDeadlockDetection(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	t1.Lock("a", LockX)
	t2.Lock("b", LockX)
	blocked := make(chan error, 1)
	go func() { blocked <- t1.Lock("b", LockX) }()
	time.Sleep(20 * time.Millisecond)
	// t2 requesting a now closes the cycle; t2 must be the victim.
	err := t2.Lock("a", LockX)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	m.Abort(t2)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	m.Commit(t1, nil)
	if m.Stats().Deadlocks != 1 {
		t.Fatal("deadlock counter")
	}
}

func TestThreeWayDeadlock(t *testing.T) {
	m := NewManager()
	txs := []*Txn{m.Begin(), m.Begin(), m.Begin()}
	for i, tx := range txs {
		if err := tx.Lock(fmt.Sprintf("r%d", i), LockX); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 3)
	go func() { errs <- txs[0].Lock("r1", LockX) }()
	time.Sleep(10 * time.Millisecond)
	go func() { errs <- txs[1].Lock("r2", LockX) }()
	time.Sleep(10 * time.Millisecond)
	// Closing edge: t2 -> r0 completes the 3-cycle.
	err := txs[2].Lock("r0", LockX)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	m.Abort(txs[2])
	// The abort releases r2, so t1's wait resolves first; committing t1 then
	// releases r1 for t0.
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	m.Commit(txs[1], nil)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	m.Commit(txs[0], nil)
}

func TestCSNMonotonicAndHookOrder(t *testing.T) {
	m := NewManager()
	var mu sync.Mutex
	var hookOrder []relalg.CSN
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := m.Begin()
			_, err := m.Commit(tx, func(csn relalg.CSN, _ time.Time) error {
				mu.Lock()
				hookOrder = append(hookOrder, csn)
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if len(hookOrder) != 50 {
		t.Fatalf("hooks: %d", len(hookOrder))
	}
	for i, csn := range hookOrder {
		if csn != relalg.CSN(i+1) {
			t.Fatalf("hook order broken at %d: %d", i, csn)
		}
	}
	if m.LastCSN() != 50 {
		t.Fatal("last csn")
	}
}

func TestCommitHookErrorLeavesTxnActive(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	wantErr := errors.New("log full")
	_, err := m.Commit(tx, func(relalg.CSN, time.Time) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatal(err)
	}
	if tx.State() != StateActive {
		t.Fatal("txn should remain active after hook failure")
	}
	// A later commit must reuse the CSN the failed attempt did not consume.
	csn, err := m.Commit(tx, nil)
	if err != nil || csn != 1 {
		t.Fatalf("csn %d err %v", csn, err)
	}
}

// TestCommitQuietSkipsCommitPoint checks that a quiet commit neither mints
// a CSN nor waits for commitMu: it completes while another committer's
// hook (the log append and fsync) is blocked, returns the newest assigned
// CSN, and releases its locks.
func TestCommitQuietSkipsCommitPoint(t *testing.T) {
	m := NewManager()
	if _, err := m.Commit(m.Begin(), nil); err != nil {
		t.Fatal(err)
	}
	inHook, release := make(chan struct{}), make(chan struct{})
	writer := m.Begin()
	done := make(chan relalg.CSN, 1)
	go func() {
		csn, _ := m.Commit(writer, func(relalg.CSN, time.Time) error {
			close(inHook)
			<-release
			return nil
		})
		done <- csn
	}()
	<-inHook

	reader := m.Begin()
	if err := reader.Lock("r", LockS); err != nil {
		t.Fatal(err)
	}
	reader.OnAbort(func() { t.Error("quiet commit ran an undo action") })
	quiet := make(chan relalg.CSN, 1)
	go func() {
		csn, err := m.CommitQuiet(reader)
		if err != nil {
			t.Error(err)
		}
		quiet <- csn
	}()
	select {
	case csn := <-quiet:
		if csn != 1 {
			t.Fatalf("quiet commit returned %d, want the newest assigned CSN 1", csn)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("quiet commit waited for the commit mutex")
	}
	close(release)
	if csn := <-done; csn != 2 {
		t.Fatalf("writer CSN %d, want 2: the quiet commit must not mint one", csn)
	}
	if reader.State() != StateCommitted || reader.HeldMode("r") != LockNone {
		t.Fatalf("quiet commit: state %d, lock %s", reader.State(), reader.HeldMode("r"))
	}
	if _, err := m.CommitQuiet(reader); !errors.Is(err, ErrTxnDone) {
		t.Fatal(err)
	}
}

func TestAbortRunsUndoInReverse(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	var order []int
	tx.OnAbort(func() { order = append(order, 1) })
	tx.OnAbort(func() { order = append(order, 2) })
	m.Abort(tx)
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("undo order: %v", order)
	}
	if tx.State() != StateAborted {
		t.Fatal("state")
	}
}

func TestFinishedTxnRejectsOperations(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	m.Commit(tx, nil)
	if err := tx.Lock("r", LockS); !errors.Is(err, ErrTxnDone) {
		t.Fatal(err)
	}
	if _, err := m.Commit(tx, nil); !errors.Is(err, ErrTxnDone) {
		t.Fatal(err)
	}
	if err := m.Abort(tx); !errors.Is(err, ErrTxnDone) {
		t.Fatal(err)
	}
}

func TestLocksReleasedOnAbort(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	t1.Lock("r", LockX)
	m.Abort(t1)
	if err := t2.Lock("r", LockX); err != nil {
		t.Fatal(err)
	}
	m.Commit(t2, nil)
}

// TestSerializability runs concurrent read-modify-write transactions over a
// shared map protected only by the lock manager and verifies the final sum
// is exact — a strict-2PL serializability smoke test.
func TestSerializability(t *testing.T) {
	m := NewManager()
	accounts := map[string]int{"a": 1000, "b": 1000, "c": 1000}
	var tableMu sync.Mutex // simulates low-level page latching only
	read := func(k string) int {
		tableMu.Lock()
		defer tableMu.Unlock()
		return accounts[k]
	}
	write := func(k string, v int) {
		tableMu.Lock()
		defer tableMu.Unlock()
		accounts[k] = v
	}

	const workers = 8
	const txPerWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			names := []string{"a", "b", "c"}
			for i := 0; i < txPerWorker; i++ {
				for {
					tx := m.Begin()
					src := names[r.Intn(3)]
					dst := names[r.Intn(3)]
					if src == dst {
						dst = names[(r.Intn(2)+1+r.Intn(1))%3]
					}
					if err := tx.Lock(src, LockX); err != nil {
						m.Abort(tx)
						continue
					}
					sv := read(src)
					tx.OnAbort(func() { write(src, sv) })
					write(src, sv-1)
					if err := tx.Lock(dst, LockX); err != nil {
						m.Abort(tx)
						continue // deadlock victim: retry
					}
					dv := read(dst)
					tx.OnAbort(func() { write(dst, dv) })
					write(dst, dv+1)
					if _, err := m.Commit(tx, nil); err != nil {
						t.Error(err)
						return
					}
					break
				}
			}
		}(int64(w))
	}
	wg.Wait()
	total := read("a") + read("b") + read("c")
	if total != 3000 {
		t.Fatalf("money not conserved: %d", total)
	}
	st := m.Stats()
	if st.Committed != workers*txPerWorker {
		t.Fatalf("committed %d", st.Committed)
	}
}

func TestStatsWaitAccounting(t *testing.T) {
	m := NewManager()
	t1, t2 := m.Begin(), m.Begin()
	t1.Lock("r", LockX)
	done := make(chan struct{})
	go func() {
		t2.Lock("r", LockX)
		close(done)
	}()
	time.Sleep(30 * time.Millisecond)
	m.Commit(t1, nil)
	<-done
	st := m.Stats()
	if st.LockWaits != 1 {
		t.Fatalf("waits %d", st.LockWaits)
	}
	if st.LockWaitTime < 20*time.Millisecond {
		t.Fatalf("wait time %v too small", st.LockWaitTime)
	}
	m.Commit(t2, nil)
}

func TestLockModeString(t *testing.T) {
	for _, m := range []LockMode{LockNone, LockIS, LockIX, LockS, LockX} {
		if m.String() == "?" {
			t.Fatal("mode name")
		}
	}
	if LockMode(99).String() != "?" {
		t.Fatal("unknown mode")
	}
}
