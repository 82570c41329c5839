package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"qb5000"
)

// linesPerRequest is the size of one /observe request: the unit every
// observe latency and the `attempted` count refer to.
const linesPerRequest = 256

// tsLayout is the fixed-width timestamp every generated line starts with, so
// a body can be re-stamped in place without re-rendering it.
const tsLayout = "2006-01-02T15:04:05Z"

// litDigits is the width of the one numeric literal every generated query
// carries inside a quoted token ('u000000000042'). Rewriting those digits in
// place turns a pooled line into raw SQL the daemon has never seen.
const litDigits = 12

// historyStart is the first primed hour: a Monday, 08:00, so the simulated
// day that follows the primed ones starts with daytime hours.
var historyStart = time.Date(2018, time.January, 1, 8, 0, 0, 0, time.UTC)

// patterns are the query shapes of the synthetic catalog, modelled on
// internal/workload's Admissions, BusTracker and MOOC generators. %[1]d is
// the variant (a table-name suffix: each variant is a distinct template),
// %[2]s the fixed-width token literal, %[3]d and %[4]d free parameters.
var patterns = []string{
	"SELECT c.id, c.title, c.body FROM content_%[1]d c WHERE c.course_id = %[3]d AND c.unit = %[4]d AND c.token = '%[2]s'",
	"SELECT co.id, co.title FROM courses_%[1]d co WHERE co.category = '%[2]s' AND co.open = TRUE ORDER BY co.enrolled DESC LIMIT 20",
	"INSERT INTO enrollments_%[1]d (user_id, course_id, token) VALUES (%[3]d, %[4]d, '%[2]s')",
	"SELECT s.assignment_id, s.score FROM submissions_%[1]d s WHERE s.user_id = %[3]d AND s.course_id = %[4]d AND s.token = '%[2]s'",
	"SELECT p.eta, p.bus_id FROM predictions_%[1]d p WHERE p.stop_id = %[3]d AND p.route_id = %[4]d AND p.token = '%[2]s' ORDER BY p.eta LIMIT 5",
	"SELECT r.id, r.name FROM routes_%[1]d r JOIN route_stops_%[1]d rs ON r.id = rs.route_id WHERE rs.stop_id = %[3]d AND rs.token = '%[2]s'",
	"UPDATE buses_%[1]d SET lat = %[3]d, lon = %[4]d WHERE token = '%[2]s'",
	"SELECT rs.route_id, COUNT(*) FROM route_stops_%[1]d rs WHERE rs.stop_id IN (%[3]d, %[4]d) AND rs.token = '%[2]s' GROUP BY rs.route_id",
	"INSERT INTO bus_locations_%[1]d (bus_id, lat, lon, token) VALUES (%[3]d, %[4]d, %[3]d, '%[2]s')",
	"SELECT a.id, a.status, a.updated_at FROM applications_%[1]d a WHERE a.student_id = %[3]d AND a.token = '%[2]s'",
	"SELECT u.id, u.password_hash FROM users_%[1]d u WHERE u.email = '%[2]s'",
	"UPDATE applications_%[1]d SET status = 'submitted', submitted_at = %[3]d WHERE id = %[4]d AND token = '%[2]s'",
	"SELECT a.id, a.student_id FROM applications_%[1]d a WHERE a.program_id = %[3]d AND a.status = '%[2]s' ORDER BY a.submitted_at LIMIT 50",
	"INSERT INTO reviews_%[1]d (application_id, reviewer_id, score, token) VALUES (%[3]d, %[4]d, 7, '%[2]s')",
	"DELETE FROM sessions_%[1]d WHERE expires_at < %[3]d AND token = '%[2]s'",
	"SELECT d.kind, d.path FROM documents_%[1]d d WHERE d.application_id = %[3]d AND d.token = '%[2]s'",
}

// groups are the diurnal arrival patterns; shapes of one group rise and fall
// together at different volumes, which is what the clusterer keys on. The
// groups peak three hours apart so that, at the clusterer's similarity
// threshold, they stay four clusters whatever noise a seed draws.
var groups = [][]peak{
	{{3, 8, 1.2}, {15, 8, 1.2}},
	{{6, 8, 1.2}, {18, 8, 1.2}},
	{{9, 8, 1.2}, {21, 8, 1.2}},
	{{0, 8, 1.2}, {12, 8, 1.2}},
}

type peak struct{ hour, height, width float64 }

// hourIndex numbers clock hours from historyStart.
func hourIndex(at time.Time) int { return int(at.Sub(historyStart) / time.Hour) }

// groupRate is a group's arrival multiplier at the given time: a base load
// of 1 plus Gaussian bumps at the group's peak hours, wrapping midnight.
func groupRate(g int, at time.Time) float64 {
	h := float64(at.Hour()) + float64(at.Minute())/60
	v := 1.0
	for _, p := range groups[g] {
		d := h - p.hour
		if d > 12 {
			d -= 24
		}
		if d < -12 {
			d += 24
		}
		v += p.height * math.Exp(-d*d/(2*p.width*p.width))
	}
	return v
}

// shape is one template of the catalog.
type shape struct {
	pattern, variant int
	group            int
	// perMinute is the shape's arrival rate at group multiplier 1.
	perMinute float64
}

// catalog is the seed-independent part of a workload: which templates exist
// and how often each arrives. Only literals, free parameters and traffic picks
// vary with the seed, so runs on different seeds measure the same system.
type catalog struct {
	shapes []shape
	// cum is the cumulative volume share of the shapes, for weighted picks.
	cum []float64
	// byTemplate maps a canonical template text back to its shape.
	byTemplate map[string]int
}

// minPerMinute is the base rate of the least popular shape: about six
// arrivals in its quietest hour, so every shape shows up while priming.
const minPerMinute = 0.1

func newCatalog(n int) (*catalog, error) {
	c := &catalog{byTemplate: make(map[string]int, n)}
	var total float64
	for i := 0; i < n; i++ {
		s := shape{
			pattern: i % len(patterns),
			variant: i / len(patterns),
			group:   (i / 3) % len(groups),
			// Zipf volumes: rank i+1 arrives n/(i+1) times as often as the
			// last shape.
			perMinute: minPerMinute * float64(n) / float64(i+1),
		}
		tmpl, _, err := qb5000.Templatize(string(s.appendSQL(nil, 0, 1, 2)))
		if err != nil {
			return nil, fmt.Errorf("shape %d does not parse: %w", i, err)
		}
		if prev, dup := c.byTemplate[tmpl]; dup {
			return nil, fmt.Errorf("shapes %d and %d share template %q", prev, i, tmpl)
		}
		c.byTemplate[tmpl] = i
		c.shapes = append(c.shapes, s)
		total += s.perMinute
	}
	var acc float64
	for _, s := range c.shapes {
		acc += s.perMinute / total
		c.cum = append(c.cum, acc)
	}
	return c, nil
}

// appendSQL renders one concrete query of the shape.
func (s shape) appendSQL(dst []byte, lit uint64, a, b int) []byte {
	return fmt.Appendf(dst, patterns[s.pattern], s.variant, token(lit), a, b)
}

func token(lit uint64) string {
	return fmt.Sprintf("u%0*d", litDigits, lit)
}

// oneOfEach renders a body with one arrival of every shape, which teaches a
// fresh catalog all its templates.
func (c *catalog) oneOfEach(at time.Time) []byte {
	var buf []byte
	for i, s := range c.shapes {
		buf = at.AppendFormat(buf, tsLayout)
		buf = append(buf, '\t')
		buf = s.appendSQL(buf, litHistory-1-uint64(i), 1, 2)
		buf = append(buf, '\n')
	}
	return buf
}

// rate is the shape's expected arrivals per minute at the given time.
func (s shape) rate(at time.Time) float64 {
	return s.perMinute * groupRate(s.group, at)
}

// pick draws a shape index in proportion to volume.
func (c *catalog) pick(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(c.cum, rng.Float64()), len(c.cum)-1)
}

// poisson samples a Poisson(lambda) count (normal approximation above 30).
func poisson(rng *rand.Rand, lambda float64) int64 {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int64(v + 0.5)
	}
	l := math.Exp(-lambda)
	var k int64
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Literal ranges keep the phases' raw strings disjoint: history lines, the
// traffic pool, and the per-connection streams of never-seen literals.
const (
	litHistory = 5e11
	litPool    = 1e11
	litFresh   = 2e11 // + connection × 1e11
)

// history renders the count-aggregated lines of [from, to) at the given step
// (one line per shape per step with a Poisson count), cut into request
// bodies. volume[k][i] accumulates shape i's arrivals in clock hour k since
// historyStart, so forecasts can be scored against what was actually sent.
type history struct {
	cat *catalog
	// noise draws the arrival counts and rng the free parameters. Only rng
	// follows the seed: HYBRID's RNN stops training early or late depending on
	// the noise in its input, so seeded counts made maintain_s and
	// forecast_logmse differ by 15-20 % between seeds for the same code.
	noise, rng *rand.Rand
	lit        uint64
	volume     map[int][]int64
	total      int64
}

// volumeSeed seeds every run's arrival counts.
const volumeSeed = 5000

func newHistory(cat *catalog, seed int64) *history {
	return &history{
		cat: cat, noise: rand.New(rand.NewSource(volumeSeed)), rng: rand.New(rand.NewSource(seed)),
		lit: litHistory, volume: make(map[int][]int64),
	}
}

// bodies returns the request bodies covering the steps at from, from+step …
// before to.
func (h *history) bodies(from, to time.Time, step time.Duration) [][]byte {
	var out [][]byte
	var cur []byte
	n := 0
	var ts [len(tsLayout)]byte
	for at := from; at.Before(to); at = at.Add(step) {
		at.AppendFormat(ts[:0], tsLayout)
		hour := hourIndex(at)
		vol := h.volume[hour]
		if vol == nil {
			vol = make([]int64, len(h.cat.shapes))
			h.volume[hour] = vol
		}
		for i, s := range h.cat.shapes {
			count := poisson(h.noise, s.rate(at)*step.Minutes())
			if count == 0 {
				continue
			}
			vol[i] += count
			h.total += count
			h.lit++
			cur = append(cur, ts[:]...)
			cur = append(cur, '\t')
			cur = strconv.AppendInt(cur, count, 10)
			cur = append(cur, '\t')
			cur = s.appendSQL(cur, h.lit, h.rng.Intn(100000), h.rng.Intn(1000))
			cur = append(cur, '\n')
			if n++; n == linesPerRequest {
				out = append(out, cur)
				cur, n = nil, 0
			}
		}
	}
	if n > 0 {
		out = append(out, cur)
	}
	return out
}

// body is one pre-rendered /observe request of count-1 lines.
type body struct {
	buf []byte
	// ts and lit are the offsets of each line's timestamp and literal.
	ts, lit []int32
	// fresh lists the lines whose literal is rewritten on every send.
	fresh []int32
	// shapes is each line's shape, for tallying what was sent.
	shapes []int32
}

// stamp rewrites every line's timestamp, and the literal of the fresh lines
// with values counted up from *next. It is the only per-send work.
func (b *body) stamp(at time.Time, next *uint64) {
	var ts [len(tsLayout)]byte
	at.AppendFormat(ts[:0], tsLayout)
	for _, off := range b.ts {
		copy(b.buf[off:], ts[:])
	}
	for _, line := range b.fresh {
		*next++
		v := *next
		off := int(b.lit[line])
		for d := litDigits - 1; d >= 0; d-- {
			b.buf[off+d] = byte('0' + v%10)
			v /= 10
		}
	}
}

// traffic describes a workload's timed observe stream.
type traffic struct {
	// pool is how many distinct raw strings the stream cycles through.
	pool int
	// bodies is how many request bodies are rendered from the pool.
	bodies int
	// zipf, when > 0, draws each line from the pool with that Zipf exponent
	// (entry k with weight 1/(k+1)^zipf) instead of walking the pool in
	// order.
	zipf float64
	// freshShare of the lines carry a never-seen literal on every send.
	freshShare float64
}

// render builds the traffic's request bodies. Lines pick their shape in
// proportion to volume, so the stream has the catalog's popularity skew.
func (t traffic) render(cat *catalog, seed int64) []*body {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	type entry struct {
		shape int
		a, b  int
	}
	pool := make([]entry, t.pool)
	for i := range pool {
		pool[i] = entry{cat.pick(rng), rng.Intn(100000), rng.Intn(1000)}
	}
	var zipf []float64 // cumulative weights of the pool entries
	if t.zipf > 0 {
		zipf = make([]float64, t.pool)
		var acc float64
		for k := range zipf {
			acc += math.Pow(float64(k+1), -t.zipf)
			zipf[k] = acc
		}
	}
	at := historyStart.Format(tsLayout)
	out := make([]*body, t.bodies)
	next := 0
	for i := range out {
		b := &body{}
		for line := 0; line < linesPerRequest; line++ {
			k := next % t.pool
			next++
			if zipf != nil {
				k = sort.SearchFloat64s(zipf, rng.Float64()*zipf[t.pool-1])
			}
			e := pool[k]
			b.shapes = append(b.shapes, int32(e.shape))
			b.ts = append(b.ts, int32(len(b.buf)))
			b.buf = append(b.buf, at...)
			b.buf = append(b.buf, '\t')
			sqlStart := len(b.buf)
			b.buf = cat.shapes[e.shape].appendSQL(b.buf, litPool+uint64(k), e.a, e.b)
			b.lit = append(b.lit, int32(sqlStart+litOffset(b.buf[sqlStart:])))
			b.buf = append(b.buf, '\n')
			if rng.Float64() < t.freshShare {
				b.fresh = append(b.fresh, int32(line))
			}
		}
		out[i] = b
	}
	return out
}

// litOffset finds the token literal's digits in a rendered query.
func litOffset(sql []byte) int {
	for i := 0; i+litDigits+2 < len(sql); i++ {
		if sql[i] == '\'' && sql[i+1] == 'u' && sql[i+2+litDigits] == '\'' {
			return i + 2
		}
	}
	panic("bench: rendered query carries no token literal")
}
