package main

import (
	"math/rand"
	"sort"
	"strconv"
)

// reqBuilder assembles one POST /v1/commit body in the server's typed wire
// envelope without reflection, so generating requests costs the load
// generator little CPU next to the nodes it shares the machine with.
type reqBuilder struct {
	buf []byte
	ops int
}

func (b *reqBuilder) open() {
	if b.ops == 0 {
		b.buf = append(b.buf[:0], `{"ops":[`...)
	} else {
		b.buf = append(b.buf, ',')
	}
	b.ops++
}

// insert adds an insert of the given row; values are int64 or string.
func (b *reqBuilder) insert(table string, vals ...any) {
	b.open()
	b.buf = append(b.buf, `{"op":"insert","table":"`...)
	b.buf = append(b.buf, table...)
	b.buf = append(b.buf, `","row":[`...)
	for i, v := range vals {
		if i > 0 {
			b.buf = append(b.buf, ',')
		}
		switch v := v.(type) {
		case int64:
			b.buf = append(b.buf, `{"i":`...)
			b.buf = strconv.AppendInt(b.buf, v, 10)
		case string:
			b.buf = append(b.buf, `{"s":`...)
			b.buf = strconv.AppendQuote(b.buf, v)
		default:
			panic("reqBuilder: unsupported value type")
		}
		b.buf = append(b.buf, '}')
	}
	b.buf = append(b.buf, `]}`...)
}

// deleteEq adds a delete of the one row whose integer column equals v;
// the limit lets the server stop scanning at the first match.
func (b *reqBuilder) deleteEq(table, column string, v int64) {
	b.open()
	b.buf = append(b.buf, `{"op":"delete","table":"`...)
	b.buf = append(b.buf, table...)
	b.buf = append(b.buf, `","filters":[{"column":"`...)
	b.buf = append(b.buf, column...)
	b.buf = append(b.buf, `","op":"eq","value":{"i":`...)
	b.buf = strconv.AppendInt(b.buf, v, 10)
	b.buf = append(b.buf, `}}],"limit":1}`...)
}

// take closes the request and returns a copy of its bytes.
func (b *reqBuilder) take() []byte {
	b.buf = append(b.buf, `]}`...)
	out := append([]byte(nil), b.buf...)
	b.ops = 0
	return out
}

// generator produces a workload's requests from a seed: first the bulk
// load, then an endless stream of commits. The same seed gives the same
// bytes; nodes see nothing of the seed but these requests. Every commit of
// the stream is built so that it changes the observed view.
type generator struct {
	w   *workload
	rng *rand.Rand
	b   reqBuilder

	nextID  int64 // next fresh primary key for inserted fact/order rows
	nextDel int64 // next deletable initial fact row
	version int64 // attribute version written by dimension replaces

	zipf *rand.Zipf
	// heavy[d] and light[d] list the keys of dimension d that keep at least
	// one fact row for the whole run, so that replacing their row always
	// changes the view: the heavyKeys keys with the most such rows, and the
	// rest.
	heavy, light [3][]int64
	replaces     int
}

const (
	heavyKeys = 8
	// heavyEvery is the cadence of heavy-key replaces: every heavyEvery-th
	// dimension replace takes the next heavy key in turn, the others a
	// light key at random. Heavy keys fan out to hundreds or thousands of
	// view rows; a fixed cadence gives every measurement window the same
	// share of them whatever the seed.
	heavyEvery = 50
)

const loadBatch = 500 // rows per bulk-load commit

func newGenerator(w *workload, seed int64) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed))}
	if w.Shape == shapeStar {
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(w.Dims-1))
	}
	return g
}

// load returns the bulk-load commits, at most loadBatch rows each.
func (g *generator) load() [][]byte {
	var out [][]byte
	flush := func() {
		if g.b.ops > 0 {
			out = append(out, g.b.take())
		}
	}
	add := func(table string, vals ...any) {
		g.b.insert(table, vals...)
		if g.b.ops == loadBatch {
			flush()
		}
	}
	w := g.w
	switch w.Shape {
	case shapeOrders:
		for i := int64(0); i < int64(w.Dims); i++ {
			add("users", i, "u"+strconv.FormatInt(i, 10))
		}
		flush()
		for i := 0; i < w.Facts; i++ {
			g.order(add)
		}
	case shapeStar:
		for d := 1; d <= 3; d++ {
			table := "dim" + strconv.Itoa(d)
			for k := int64(0); k < int64(w.Dims); k++ {
				add(table, k, int64(0))
			}
			flush()
		}
		var kept [3]map[int64]int // rows per key that the stream never deletes
		for d := range kept {
			kept[d] = map[int64]int{}
		}
		for i := 0; i < w.Facts; i++ {
			keys := g.fact(add)
			if g.nextID > int64(w.Deletable) {
				for d, k := range keys {
					kept[d][k]++
				}
			}
		}
		for d, rows := range kept {
			keys := make([]int64, 0, len(rows))
			for k := range rows {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(a, b int) bool {
				if rows[keys[a]] != rows[keys[b]] {
					return rows[keys[a]] > rows[keys[b]]
				}
				return keys[a] < keys[b]
			})
			g.heavy[d], g.light[d] = keys[:heavyKeys], keys[heavyKeys:]
		}
	case shapeCascade:
		for k := int64(0); k < int64(w.Dims); k++ {
			add("dim", k, "r"+strconv.FormatInt(k%cascadeRegions, 10))
		}
		flush()
		for k := int64(0); k < int64(w.Dims); k++ {
			add("dim2", k, k%cascadeTiers)
		}
		flush()
		for i := 0; i < w.Facts; i++ {
			g.cascadeFact(add)
		}
	}
	flush()
	return out
}

type addFn func(table string, vals ...any)

func (g *generator) order(add addFn) {
	add("orders", g.nextID, g.rng.Int63n(int64(g.w.Dims)), 1+g.rng.Int63n(1000))
	g.nextID++
}

func (g *generator) fact(add addFn) [3]int64 {
	keys := [3]int64{int64(g.zipf.Uint64()), int64(g.zipf.Uint64()), int64(g.zipf.Uint64())}
	add("fact", g.nextID, keys[0], keys[1], keys[2], 1+g.rng.Int63n(100))
	g.nextID++
	return keys
}

func (g *generator) cascadeFact(add addFn) {
	add("fact", g.nextID, g.rng.Int63n(int64(g.w.Dims)), g.rng.Int63n(int64(g.w.Dims)), 1+g.rng.Int63n(1000))
	g.nextID++
}

// next returns the next commit of the stream.
func (g *generator) next() []byte {
	w := g.w
	switch w.Shape {
	case shapeOrders:
		for i := 0; i < w.RowsPerCommit; i++ {
			g.order(g.b.insert)
		}
	case shapeCascade:
		for i := 0; i < w.RowsPerCommit; i++ {
			g.cascadeFact(g.b.insert)
		}
	case shapeStar:
		switch r := g.rng.Intn(4); {
		case r < 2 || (r == 2 && g.nextDel >= int64(w.Deletable)):
			g.fact(g.b.insert)
		case r == 2:
			// Deletes take initial rows in insertion order, each once, so a
			// delete never races the insert of the row it names.
			g.b.deleteEq("fact", "fid", g.nextDel)
			g.nextDel++
		default:
			// Replace one dimension row: every fact row on that key changes
			// in the view, a handful for most keys, thousands for heavy ones.
			d := g.rng.Intn(3)
			k := g.light[d][g.rng.Intn(len(g.light[d]))]
			if g.replaces++; g.replaces%heavyEvery == 0 {
				k = g.heavy[d][g.replaces/heavyEvery%heavyKeys]
			}
			n := strconv.Itoa(d + 1)
			g.version++
			g.b.deleteEq("dim"+n, "d"+n+"k", k)
			g.b.insert("dim"+n, k, g.version)
		}
	}
	return g.b.take()
}

// take returns the next n commits of the stream.
func (g *generator) take(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}
