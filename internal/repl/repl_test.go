package repl

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"
	"time"

	rollingjoin "repro"
	"repro/internal/tuple"
)

// --- wire codec ---

func TestValueCodecRoundTrip(t *testing.T) {
	vals := []tuple.Value{
		tuple.Null(),
		tuple.Bool(true),
		tuple.Bool(false),
		tuple.Int(0),
		tuple.Int(-7),
		tuple.Int(1<<62 + 12345), // beyond float53 — must survive exactly
		tuple.Float(1.5),
		tuple.Float(-0.25),
		tuple.String_(""),
		tuple.String_("héllo \"world\"\n"),
		tuple.Bytes([]byte{0, 1, 2, 255}),
		tuple.Bytes([]byte{}),
	}
	enc, err := json.Marshal(EncodeRow(tuple.Tuple(vals)))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(enc, &raws); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	got, err := DecodeRow(raws)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.Equal(tuple.Tuple(vals)) {
		t.Errorf("round trip: got %v want %v (wire %s)", got, vals, enc)
	}
}

func TestValueCodecRejectsUntyped(t *testing.T) {
	for _, raw := range []string{`{}`, `{"x":1}`, `5`, `"s"`} {
		if _, err := DecodeValue(json.RawMessage(raw)); err == nil {
			t.Errorf("DecodeValue(%s) accepted; want error", raw)
		}
	}
	v, err := DecodeValue(json.RawMessage("null"))
	if err != nil || !v.IsNull() {
		t.Errorf("DecodeValue(null) = %v, %v; want NULL", v, err)
	}
}

func TestDecodeOp(t *testing.T) {
	if op, err := DecodeOp(""); err != nil || op != 0 {
		t.Errorf("empty op: %v, %v", op, err)
	}
	if _, err := DecodeOp("like"); err == nil {
		t.Errorf("unknown op accepted")
	}
	for _, name := range []string{"eq", "ne", "lt", "le", "gt", "ge"} {
		if _, err := DecodeOp(name); err != nil {
			t.Errorf("op %q: %v", name, err)
		}
	}
}

// --- end-to-end replication over a real socket ---

// testSchema creates the users/orders tables and the joined view on db.
// Leader and follower run identical DDL: catalog state is local, only
// committed data travels on the wire.
func testSchema(t *testing.T, db *rollingjoin.DB) *rollingjoin.View {
	t.Helper()
	if err := db.CreateTable("users",
		rollingjoin.Col("id", rollingjoin.TypeInt),
		rollingjoin.Col("name", rollingjoin.TypeString),
	); err != nil {
		t.Fatalf("create users: %v", err)
	}
	if err := db.CreateTable("orders",
		rollingjoin.Col("uid", rollingjoin.TypeInt),
		rollingjoin.Col("amount", rollingjoin.TypeInt),
	); err != nil {
		t.Fatalf("create orders: %v", err)
	}
	v, err := db.DefineView(rollingjoin.ViewSpec{
		Name:   "big",
		Tables: []string{"users", "orders"},
		Joins: []rollingjoin.Join{{
			LeftTable: "users", LeftColumn: "id",
			RightTable: "orders", RightColumn: "uid",
		}},
		Filters: []rollingjoin.Filter{{
			Table: "orders", Column: "amount", Op: rollingjoin.GE, Value: rollingjoin.Int(10),
		}},
		Output: []rollingjoin.OutCol{
			{Table: "users", Column: "name"},
			{Table: "orders", Column: "amount"},
		},
	}, rollingjoin.Maintain{Interval: 1})
	if err != nil {
		t.Fatalf("define view: %v", err)
	}
	return v
}

// encodeSorted renders tuples in the storage encoding, sorted — the
// byte-equality witness for view comparison.
func encodeSorted(rows []rollingjoin.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(tuple.EncodeRow(nil, tuple.Tuple(r)))
	}
	sort.Strings(out)
	return out
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestReplicationConverges(t *testing.T) {
	leader, err := rollingjoin.Open(rollingjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	lv := testSchema(t, leader)
	srv := httptest.NewServer(NewServer(leader).Handler())
	defer srv.Close()

	follower, err := rollingjoin.Open(rollingjoin.Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fv := testSchema(t, follower)

	tailer := NewTailer(follower, srv.URL)
	tailer.Start()
	defer tailer.Stop()

	// Mixed workload: direct commits on the leader plus commits through the
	// HTTP surface, interleaved with deletes.
	for i := 0; i < 40; i++ {
		if _, err := leader.Update(func(tx *rollingjoin.Tx) error {
			if err := tx.Insert("users", rollingjoin.Int(int64(i)), rollingjoin.Str(fmt.Sprintf("u%d", i))); err != nil {
				return err
			}
			return tx.Insert("orders", rollingjoin.Int(int64(i)), rollingjoin.Int(int64(i%25)))
		}); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	body := `{"ops":[
		{"op":"insert","table":"orders","row":[{"i":3},{"i":99}]},
		{"op":"delete","table":"orders","filters":[{"column":"uid","op":"eq","value":{"i":7}}]}
	]}`
	resp, err := http.Post(srv.URL+"/v1/commit", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP commit: status %d", resp.StatusCode)
	}
	var cr CommitResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cr.CSN == 0 {
		t.Fatal("HTTP commit returned CSN 0")
	}

	// Quiesce the leader: let its asynchronous propagation reach the last
	// commit (Refresh rolls only to the current HWM, which may still trail
	// every order), roll its view to the frontier, then snapshot the
	// convergence target.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := lv.WaitForHWMContext(ctx, leader.LastCSN()); err != nil {
		t.Fatalf("leader HWM %d, last CSN %d: %v", lv.HWM(), leader.LastCSN(), err)
	}
	if _, err := lv.Refresh(); err != nil {
		t.Fatalf("leader refresh: %v", err)
	}
	target := leader.LastCSN()
	hwmTarget := lv.HWM()

	waitFor(t, "follower replay", 10*time.Second, func() bool {
		return follower.AppliedCSN() >= target
	})
	if err := fv.WaitForHWMContext(ctx, hwmTarget); err != nil {
		t.Fatalf("follower HWM %d (applied %d, leader hwm %d): %v",
			fv.HWM(), follower.AppliedCSN(), hwmTarget, err)
	}

	// Byte-equal view contents at the same instant.
	want, err := lv.MaterializeAt(hwmTarget)
	if err != nil {
		t.Fatalf("leader materialize: %v", err)
	}
	got, err := fv.MaterializeAt(hwmTarget)
	if err != nil {
		t.Fatalf("follower materialize: %v", err)
	}
	wenc, genc := encodeSorted(want), encodeSorted(got)
	if len(wenc) != len(genc) {
		t.Fatalf("cardinality: leader %d follower %d", len(wenc), len(genc))
	}
	for i := range wenc {
		if wenc[i] != genc[i] {
			t.Fatalf("row %d differs:\nleader   %q\nfollower %q", i, wenc[i], genc[i])
		}
	}
	if len(wenc) == 0 {
		t.Fatal("empty view — workload did not exercise the join")
	}

	// The follower's base tables answer ad-hoc queries identically.
	fq, err := follower.Query(rollingjoin.ViewSpec{
		Tables: []string{"orders"},
		Filters: []rollingjoin.Filter{{
			Table: "orders", Column: "amount", Op: rollingjoin.GE, Value: rollingjoin.Int(10),
		}},
	})
	if err != nil {
		t.Fatalf("follower query: %v", err)
	}
	lq, err := leader.Query(rollingjoin.ViewSpec{
		Tables: []string{"orders"},
		Filters: []rollingjoin.Filter{{
			Table: "orders", Column: "amount", Op: rollingjoin.GE, Value: rollingjoin.Int(10),
		}},
	})
	if err != nil {
		t.Fatalf("leader query: %v", err)
	}
	if len(fq.Rows) != len(lq.Rows) {
		t.Fatalf("base query rows: leader %d follower %d", len(lq.Rows), len(fq.Rows))
	}

	if tailer.Err() != nil {
		t.Fatalf("tailer failed: %v", tailer.Err())
	}

	// Replication-lag gauges: converged follower reports zero lag.
	st := follower.Engine().Stats()
	if st.Repl.Role != "follower" {
		t.Fatalf("follower role %q", st.Repl.Role)
	}
	if st.Repl.FollowerCSN < int64(target) {
		t.Fatalf("follower CSN gauge %d < target %d", st.Repl.FollowerCSN, target)
	}
	if st.Repl.BytesShipped == 0 {
		t.Fatal("BytesShipped gauge is zero after replication")
	}
	lst := leader.Engine().Stats()
	if lst.Repl.Role != "leader" || lst.Repl.BytesShipped == 0 {
		t.Fatalf("leader repl stats: %+v", lst.Repl)
	}
}

func TestFollowerRejectsWrites(t *testing.T) {
	follower, err := rollingjoin.Open(rollingjoin.Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	testSchema(t, follower)

	if _, err := follower.Update(func(tx *rollingjoin.Tx) error {
		return tx.Insert("users", rollingjoin.Int(1), rollingjoin.Str("x"))
	}); !errors.Is(err, rollingjoin.ErrReadOnly) {
		t.Fatalf("direct insert on follower: %v; want ErrReadOnly", err)
	}
	if _, err := follower.Update(func(tx *rollingjoin.Tx) error {
		_, err := tx.Delete("users", "id", rollingjoin.EQ, rollingjoin.Int(1), 0)
		return err
	}); !errors.Is(err, rollingjoin.ErrReadOnly) {
		t.Fatalf("direct delete on follower: %v; want ErrReadOnly", err)
	}

	srv := httptest.NewServer(NewServer(follower).Handler())
	defer srv.Close()
	body := `{"ops":[{"op":"insert","table":"users","row":[{"i":1},{"s":"x"}]}]}`
	resp, err := http.Post(srv.URL+"/v1/commit", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("HTTP commit on follower: status %d; want 403", resp.StatusCode)
	}
}

func TestDeltaSubscription(t *testing.T) {
	leader, err := rollingjoin.Open(rollingjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	testSchema(t, leader)
	srv := httptest.NewServer(NewServer(leader).Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/deltas?view=big&from=0", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}

	const n = 5
	for i := 0; i < n; i++ {
		if _, err := leader.Update(func(tx *rollingjoin.Tx) error {
			if err := tx.Insert("users", rollingjoin.Int(int64(i)), rollingjoin.Str("u")); err != nil {
				return err
			}
			return tx.Insert("orders", rollingjoin.Int(int64(i)), rollingjoin.Int(50))
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Every commit joins (amount 50 >= 10): the stream must deliver timed
	// events in CSN order whose signed counts net to n live rows. (Rolling
	// propagation may interleave negative compensation deltas, so individual
	// counts can be negative; the net effect cannot.)
	sc := bufio.NewScanner(resp.Body)
	var events []DeltaEvent
	var net int64
	for net < n && sc.Scan() {
		var ev DeltaEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		net += ev.Count
	}
	if net != n {
		t.Fatalf("net %d over %d events, want %d (scan err %v)", net, len(events), n, sc.Err())
	}
	var last int64
	for i, ev := range events {
		if ev.CSN < last {
			t.Errorf("event %d: CSN %d went backwards from %d", i, ev.CSN, last)
		}
		last = ev.CSN
		if len(ev.Row) != 2 {
			t.Errorf("event %d: arity %d; want 2", i, len(ev.Row))
		}
	}
}

func TestMaterializeEndpoint(t *testing.T) {
	leader, err := rollingjoin.Open(rollingjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	lv := testSchema(t, leader)
	srv := httptest.NewServer(NewServer(leader).Handler())
	defer srv.Close()

	// A wall-time target before every commit has no CSN to map to.
	body := fmt.Sprintf(`{"view":"big","time":%q}`, time.Unix(0, 0).UTC().Format(time.RFC3339Nano))
	resp, err := http.Post(srv.URL+"/v1/materialize", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("materialize before commits: status %d; want 404", resp.StatusCode)
	}

	for i := 0; i < 3; i++ {
		if _, err := leader.Update(func(tx *rollingjoin.Tx) error {
			if err := tx.Insert("users", rollingjoin.Int(int64(i)), rollingjoin.Str("u")); err != nil {
				return err
			}
			return tx.Insert("orders", rollingjoin.Int(int64(i)), rollingjoin.Int(20))
		}); err != nil {
			t.Fatal(err)
		}
	}
	target := leader.LastCSN()
	body = fmt.Sprintf(`{"view":"big","asOf":%d,"wait":true}`, target)
	resp, err = http.Post(srv.URL+"/v1/materialize", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("materialize asOf=%d: status %d", target, resp.StatusCode)
	}
	var rr RowsResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Rows) != 3 {
		t.Fatalf("materialized %d rows, want 3", len(rr.Rows))
	}
	if rr.AsOf != int64(target) {
		t.Fatalf("asOf %d, want %d", rr.AsOf, target)
	}
	_ = lv
}

func TestTailerDivergenceFailStop(t *testing.T) {
	// Ship real committed frames from leader A into the follower...
	leaderA, err := rollingjoin.Open(rollingjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leaderA.Close()
	testSchema(t, leaderA)
	srvA := httptest.NewServer(NewServer(leaderA).Handler())

	follower, err := rollingjoin.Open(rollingjoin.Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	testSchema(t, follower)

	for i := 0; i < 10; i++ {
		if _, err := leaderA.Update(func(tx *rollingjoin.Tx) error {
			return tx.Insert("users", rollingjoin.Int(int64(i)), rollingjoin.Str("u"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	target := leaderA.LastCSN()
	tailerA := NewTailer(follower, srvA.URL)
	tailerA.Start()
	waitFor(t, "initial replication", 10*time.Second, func() bool {
		return follower.AppliedCSN() >= target
	})
	tailerA.Stop()
	if err := tailerA.Err(); err != nil {
		t.Fatalf("tailer A: %v", err)
	}
	srvA.Close()
	// Only client commits mint CSNs, so the follower holds exactly leader
	// A's history.
	applied := follower.AppliedCSN()
	if applied != target {
		t.Fatalf("follower applied CSN %d, leader A's last %d", applied, target)
	}

	// ...then point it at a fresh leader with a shorter history. The
	// follower holds bytes leader B never wrote: must fail-stop, not splice.
	leaderB, err := rollingjoin.Open(rollingjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leaderB.Close()
	testSchema(t, leaderB)
	srvB := httptest.NewServer(NewServer(leaderB).Handler())
	defer srvB.Close()

	tailerB := NewTailer(follower, srvB.URL)
	tailerB.Start()
	defer tailerB.Stop()
	waitFor(t, "divergence detection", 10*time.Second, func() bool {
		return tailerB.Err() != nil
	})
	if !errors.Is(tailerB.Err(), ErrDiverged) {
		t.Fatalf("tailer B error %v; want ErrDiverged", tailerB.Err())
	}
	// The replica kept its consistent prefix.
	if follower.AppliedCSN() != applied {
		t.Fatalf("follower applied CSN moved: %d != %d", follower.AppliedCSN(), applied)
	}
}

func TestQueryEndpoint(t *testing.T) {
	leader, err := rollingjoin.Open(rollingjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	testSchema(t, leader)
	srv := httptest.NewServer(NewServer(leader).Handler())
	defer srv.Close()

	for i := 0; i < 12; i++ {
		if _, err := leader.Update(func(tx *rollingjoin.Tx) error {
			if err := tx.Insert("users", rollingjoin.Int(int64(i)), rollingjoin.Str(fmt.Sprintf("u%d", i))); err != nil {
				return err
			}
			return tx.Insert("orders", rollingjoin.Int(int64(i%5)), rollingjoin.Int(int64(i*3)))
		}); err != nil {
			t.Fatal(err)
		}
	}

	body := `{"tables":["users","orders"],
		"joins":[{"leftTable":"users","leftColumn":"id","rightTable":"orders","rightColumn":"uid"}],
		"filters":[{"table":"orders","column":"amount","op":"ge","value":{"i":10}}],
		"output":[{"table":"users","column":"name"},{"table":"orders","column":"amount"}]}`
	resp, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	var rr struct {
		Columns []string            `json:"columns"`
		Rows    [][]json.RawMessage `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	got := make([]rollingjoin.Tuple, len(rr.Rows))
	for i, raw := range rr.Rows {
		row, err := DecodeRow(raw)
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		got[i] = rollingjoin.Tuple(row)
	}

	want, err := leader.Query(rollingjoin.ViewSpec{
		Tables: []string{"users", "orders"},
		Joins: []rollingjoin.Join{{
			LeftTable: "users", LeftColumn: "id",
			RightTable: "orders", RightColumn: "uid",
		}},
		Filters: []rollingjoin.Filter{{
			Table: "orders", Column: "amount", Op: rollingjoin.GE, Value: rollingjoin.Int(10),
		}},
		Output: []rollingjoin.OutCol{
			{Table: "users", Column: "name"},
			{Table: "orders", Column: "amount"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rr.Columns, want.Columns) {
		t.Fatalf("columns %v, want %v", rr.Columns, want.Columns)
	}
	genc, wenc := encodeSorted(got), encodeSorted(want.Rows)
	if len(wenc) == 0 {
		t.Fatal("empty result — workload did not exercise the join")
	}
	if !slices.Equal(genc, wenc) {
		t.Fatalf("HTTP query rows differ from db.Query:\nhttp %q\ndb   %q", genc, wenc)
	}

	bad, err := http.Post(srv.URL+"/v1/query", "application/json", bytes.NewReader([]byte(`{"tables":`)))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed query body: status %d; want 400", bad.StatusCode)
	}
}

func TestStatusEndpoint(t *testing.T) {
	getStatus := func(t *testing.T, url string) StatusResponse {
		t.Helper()
		resp, err := http.Get(url + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status: HTTP %d", resp.StatusCode)
		}
		var st StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	leader, err := rollingjoin.Open(rollingjoin.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	lv := testSchema(t, leader)
	lsrv := httptest.NewServer(NewServer(leader).Handler())
	defer lsrv.Close()
	var last rollingjoin.CSN
	for i := 0; i < 5; i++ {
		if last, err = leader.Update(func(tx *rollingjoin.Tx) error {
			return tx.Insert("users", rollingjoin.Int(int64(i)), rollingjoin.Str("u"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	lv.WaitForHWM(last)

	// Background propagation may still advance both clocks, so each
	// reported position must lie between readings taken around the call.
	csnBefore, hwmBefore := leader.LastCSN(), lv.HWM()
	st := getStatus(t, lsrv.URL)
	csnAfter, hwmAfter := leader.LastCSN(), lv.HWM()
	if st.Role != "leader" {
		t.Fatalf("leader role %q", st.Role)
	}
	if st.LastCSN < int64(csnBefore) || st.LastCSN > int64(csnAfter) {
		t.Fatalf("leader lastCSN %d outside [%d, %d]", st.LastCSN, csnBefore, csnAfter)
	}
	vs, ok := st.Views["big"]
	if !ok || len(st.Views) != 1 {
		t.Fatalf("leader views %+v, want exactly big", st.Views)
	}
	if vs.HWM < int64(hwmBefore) || vs.HWM > int64(hwmAfter) || vs.HWM < int64(last) {
		t.Fatalf("leader view hwm %d outside [%d, %d] or below last commit %d", vs.HWM, hwmBefore, hwmAfter, last)
	}

	follower, err := rollingjoin.Open(rollingjoin.Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fv := testSchema(t, follower)
	fsrv := httptest.NewServer(NewServer(follower).Handler())
	defer fsrv.Close()
	fst := getStatus(t, fsrv.URL)
	if fst.Role != "follower" {
		t.Fatalf("follower role %q", fst.Role)
	}
	if fst.LastCSN != int64(follower.LastCSN()) {
		t.Fatalf("follower lastCSN %d, want %d", fst.LastCSN, follower.LastCSN())
	}
	if fvs, ok := fst.Views["big"]; !ok || fvs.HWM != int64(fv.HWM()) {
		t.Fatalf("follower views %+v, want big at hwm %d", fst.Views, fv.HWM())
	}
}
