package main

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reef"
	"reef/internal/durable"
	"reef/internal/eventalg"
	"reef/internal/ir"
	"reef/internal/pubsub"
	"reef/internal/replication"
	"reef/internal/trace"
	"reef/internal/websim"
)

// tr is the run's span recorder; nil in untraced runs. The traced run
// installs timing decorators only at seams the program already exposes
// (a reef.Deployment in front of each node's servers, an
// http.RoundTripper on REST clients, a net.Listener on stream servers,
// a websim.Fetcher on the crawler) and times the benchmark's own calls
// into each module. Spans stay in memory until the run ends.
var tr *tracer

// span is one timed call. Spans of one REST request share its trace
// ID; level orders them caller (0) to callee (2).
type span struct {
	id         trace.ID
	level      int
	start, end int64 // Unix ns
}

// ival is one node-ingress interval of a published event.
type ival struct{ start, end int64 }

// pubRec is one publish call the benchmark timed.
type pubRec struct {
	first, last uint64 // event ids
	rtt         int64  // ns
}

type tracer struct {
	mu     sync.Mutex
	spans  []span
	durs   map[string][]float64 // named call durations, µs
	counts map[string]float64

	// Per-round event-linked records, keyed by event id.
	ingress  map[uint64][]ival
	fetchRet map[uint64]int64
	recv     map[uint64]int64
	pubs     []pubRec

	// Inputs kept for the isolated replays.
	filters []string // feed of every subscription placed
	events  []string // feed of every event published
	records []durable.Record
	pages   map[string][]byte // crawled page bodies by URL

	inPipeline atomic.Bool
	streamIO   atomic.Int64 // bytes through the stream servers' connections
}

func newTracer() *tracer {
	return &tracer{durs: map[string][]float64{}, counts: map[string]float64{},
		ingress: map[uint64][]ival{}, fetchRet: map[uint64]int64{}, recv: map[uint64]int64{},
		pages: map[string][]byte{}}
}

func (t *tracer) dur(name string, d time.Duration) {
	t.mu.Lock()
	t.durs[name] = append(t.durs[name], us(d))
	t.mu.Unlock()
}

func (t *tracer) count(name string, n float64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

func (t *tracer) addSpan(id trace.ID, level int, start time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, level: level, start: start.UnixNano(), end: time.Now().UnixNano()})
	t.mu.Unlock()
}

// call runs one benchmark call into the program. Traced, it mints the
// request's trace ID (which reefclient and reefcluster forward as
// X-Reef-Trace) and records the caller's span.
func (t *tracer) call(ctx context.Context, fn func(ctx context.Context) error) error {
	if t == nil {
		return fn(ctx)
	}
	id := trace.NewID()
	start := time.Now()
	err := fn(trace.NewContext(ctx, id))
	t.addSpan(id, 0, start)
	return err
}

// timedCall times fn for the end-to-end call latency and traces it.
func timedCall(ctx context.Context, sink *[]float64, mu *sync.Mutex, fn func(ctx context.Context) error) error {
	t0 := time.Now()
	err := tr.call(ctx, fn)
	d := us(time.Since(t0))
	if mu != nil {
		mu.Lock()
		defer mu.Unlock()
	}
	*sink = append(*sink, d)
	return err
}

func (t *tracer) pipeline(fn func() reef.PipelineStats) {
	if t == nil {
		fn()
		return
	}
	t.inPipeline.Store(true)
	start := time.Now()
	st := fn()
	t.dur("core.round", time.Since(start))
	t.inPipeline.Store(false)
	t.count("core.rounds", 1)
	t.count("recommend.recs", float64(st.Recommendations))
}

func (t *tracer) poll(fn func() (int, int)) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	_, published := fn()
	t.dur("waif.poll", time.Since(start))
	t.count("waif.items", float64(published))
}

func (t *tracer) scrape(n int, d time.Duration) {
	t.dur("metrics.scrape", d)
	t.count("metrics.scrape_bytes", float64(n))
}

// published notes one timed publish call of events first..last.
func (t *tracer) published(first, last uint64, rtt time.Duration, delivered int) {
	t.mu.Lock()
	t.pubs = append(t.pubs, pubRec{first: first, last: last, rtt: rtt.Nanoseconds()})
	t.counts["flow.events"] += float64(last - first + 1)
	t.counts["flow.deliveries"] += float64(delivered)
	t.mu.Unlock()
}

// received notes when the consumer got event id.
func (t *tracer) received(id uint64, at time.Time) {
	t.mu.Lock()
	t.recv[id] = at.UnixNano()
	t.mu.Unlock()
}

func (t *tracer) subscribed(feed string) {
	t.mu.Lock()
	t.filters = append(t.filters, feed)
	t.mu.Unlock()
}

func eventID(ev reef.Event) (uint64, bool) {
	if ev.Source != "reefperf" || len(ev.Payload) < 12 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(ev.Payload), true
}

// tracedDep is the Deployment a traced node serves: it embeds the
// node's Centralized, so the servers' type assertions (batch counts,
// reliable and stream delivery, persistence, sharding) take the same
// paths, and times the calls that cross into the node.
type tracedDep struct {
	*reef.Centralized
}

func (d *tracedDep) depSpan(ctx context.Context, start time.Time) {
	if id, ok := trace.FromContext(ctx); ok {
		tr.addSpan(id, 2, start)
	}
}

func (d *tracedDep) PublishBatchCounts(ctx context.Context, evs []reef.Event, counts []int) (int, error) {
	start := time.Now()
	n, err := d.Centralized.PublishBatchCounts(ctx, evs, counts)
	end := time.Now()
	tr.mu.Lock()
	tr.durs["reef.ingress"] = append(tr.durs["reef.ingress"], us(end.Sub(start)))
	tr.counts["reef.ingress_events"] += float64(len(evs))
	tr.counts["reef.ingress_calls"]++
	for _, ev := range evs {
		if id, ok := eventID(ev); ok {
			tr.ingress[id] = append(tr.ingress[id], ival{start.UnixNano(), end.UnixNano()})
		}
		if f, ok := ev.Attrs["feed"]; ok {
			tr.events = append(tr.events, f)
		}
	}
	tr.mu.Unlock()
	return n, err
}

func (d *tracedDep) PublishBatch(ctx context.Context, evs []reef.Event) (int, error) {
	return d.PublishBatchCounts(ctx, evs, nil)
}

func (d *tracedDep) IngestClicks(ctx context.Context, clicks []reef.Click) (int, error) {
	start := time.Now()
	n, err := d.Centralized.IngestClicks(ctx, clicks)
	tr.dur("reef.ingest", time.Since(start))
	tr.count("reef.ingest_clicks", float64(len(clicks)))
	d.depSpan(ctx, start)
	return n, err
}

func (d *tracedDep) FetchEventsInto(ctx context.Context, user, subID string, dst []reef.DeliveredEvent, max int) ([]reef.DeliveredEvent, error) {
	start := time.Now()
	out, err := d.Centralized.FetchEventsInto(ctx, user, subID, dst, max)
	d.fetched(start, out[len(dst):])
	return out, err
}

func (d *tracedDep) FetchEvents(ctx context.Context, user, subID string, max int) ([]reef.DeliveredEvent, error) {
	start := time.Now()
	out, err := d.Centralized.FetchEvents(ctx, user, subID, max)
	d.fetched(start, out)
	d.depSpan(ctx, start)
	return out, err
}

func (d *tracedDep) fetched(start time.Time, evs []reef.DeliveredEvent) {
	if len(evs) == 0 {
		return
	}
	end := time.Now()
	tr.mu.Lock()
	tr.durs["delivery.fetch"] = append(tr.durs["delivery.fetch"], us(end.Sub(start)))
	for _, e := range evs {
		if id, ok := eventID(e.Event); ok {
			tr.fetchRet[id] = end.UnixNano()
		}
		if e.Attempts > 1 {
			tr.counts["delivery.redeliveries"]++
		}
	}
	tr.mu.Unlock()
}

func (d *tracedDep) Ack(ctx context.Context, user, subID string, seq int64, nack bool) error {
	start := time.Now()
	err := d.Centralized.Ack(ctx, user, subID, seq, nack)
	tr.dur("delivery.ack", time.Since(start))
	d.depSpan(ctx, start)
	return err
}

func (d *tracedDep) Subscribe(ctx context.Context, user, feedURL string, opts ...reef.SubscribeOption) (reef.Subscription, error) {
	start := time.Now()
	s, err := d.Centralized.Subscribe(ctx, user, feedURL, opts...)
	d.depSpan(ctx, start)
	if err == nil {
		tr.subscribed(feedURL)
	}
	return s, err
}

func (d *tracedDep) Unsubscribe(ctx context.Context, user, feedURL string) error {
	start := time.Now()
	err := d.Centralized.Unsubscribe(ctx, user, feedURL)
	d.depSpan(ctx, start)
	return err
}

func (d *tracedDep) Subscriptions(ctx context.Context, user string) ([]reef.Subscription, error) {
	start := time.Now()
	s, err := d.Centralized.Subscriptions(ctx, user)
	d.depSpan(ctx, start)
	return s, err
}

func (d *tracedDep) Recommendations(ctx context.Context, user string) ([]reef.Recommendation, error) {
	start := time.Now()
	r, err := d.Centralized.Recommendations(ctx, user)
	d.depSpan(ctx, start)
	return r, err
}

func (d *tracedDep) AcceptRecommendation(ctx context.Context, user, id string) error {
	start := time.Now()
	err := d.Centralized.AcceptRecommendation(ctx, user, id)
	d.depSpan(ctx, start)
	return err
}

func (d *tracedDep) Stats(ctx context.Context) (reef.Stats, error) {
	start := time.Now()
	s, err := d.Centralized.Stats(ctx)
	d.depSpan(ctx, start)
	return s, err
}

// tracedTransport times REST round trips and counts their bytes.
type tracedTransport struct{ next http.RoundTripper }

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if req.ContentLength > 0 {
		tr.count("reefhttp.bytes", float64(req.ContentLength))
	}
	id, _ := trace.Parse(req.Header.Get(trace.Header))
	resp.Body = &timedBody{ReadCloser: resp.Body, id: id, start: start}
	return resp, nil
}

// timedBody ends a round trip's span when its body is consumed.
type timedBody struct {
	io.ReadCloser
	id    trace.ID
	start time.Time
	n     int64
	done  bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *timedBody) finish() {
	if b.done {
		return
	}
	b.done = true
	tr.count("reefhttp.bytes", float64(b.n))
	tr.count("reefhttp.calls", 1)
	if !b.id.IsZero() {
		tr.addSpan(b.id, 1, b.start)
	}
}

func tracedHTTPClient() *http.Client {
	return &http.Client{Transport: &tracedTransport{next: &http.Transport{MaxIdleConnsPerHost: 64}}, Timeout: 30 * time.Second}
}

// countingListener counts the bytes through every accepted connection.
type countingListener struct{ net.Listener }

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c}, nil
}

type countingConn struct{ net.Conn }

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	tr.streamIO.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	tr.streamIO.Add(int64(n))
	return n, err
}

// tracedFetcher times the crawler's fetches and keeps the pages it
// fetched for the isolated ir replay.
type tracedFetcher struct{ next websim.Fetcher }

func (f tracedFetcher) Fetch(url string) (*websim.Resource, error) {
	if tr == nil || !tr.inPipeline.Load() {
		return f.next.Fetch(url)
	}
	start := time.Now()
	r, err := f.next.Fetch(url)
	d := time.Since(start)
	tr.mu.Lock()
	tr.counts["crawler.fetches"]++
	tr.counts["crawler.fetch_ns"] += float64(d.Nanoseconds())
	if err == nil && r.ContentType == "text/html" {
		tr.pages[url] = r.Body
	}
	tr.mu.Unlock()
	return r, err
}

// tap counts every record a node journals and keeps them for the
// isolated journal replay; next is the node's own tap, if any.
func (t *tracer) tap(next func(durable.Record)) func(durable.Record) {
	return func(r durable.Record) {
		t.mu.Lock()
		t.counts["durable.records"]++
		t.counts["durable.bytes"] += float64(len(r.AppendEncoded(nil)))
		if len(t.records) < 20000 {
			t.records = append(t.records, r)
		}
		t.mu.Unlock()
		if next != nil {
			next(r)
		}
	}
}

// sample notes the backlog gauges a monitor would watch.
func (t *tracer) sample(dep *reef.Centralized, mgr *replication.Manager) {
	if st, err := dep.Stats(context.Background()); err == nil {
		t.mu.Lock()
		t.durs["delivery.retained"] = append(t.durs["delivery.retained"], st["delivery_retained"])
		t.mu.Unlock()
	}
	if mgr != nil {
		t.replStatus(mgr.Status())
	}
}

func (t *tracer) replStatus(st replication.Status) {
	pending := 0.0
	for _, p := range st.Peers {
		pending += float64(p.Pending)
	}
	t.mu.Lock()
	t.durs["replication.pending"] = append(t.durs["replication.pending"], pending)
	t.mu.Unlock()
}

// nodeDone takes a node's last counters and times a snapshot and its
// replay, just before the round tears the node down.
func (t *tracer) nodeDone(n *node) {
	if n.mgr != nil {
		for _, p := range n.mgr.Status().Peers {
			t.count("replication.shipped", float64(p.Shipped))
			t.count("replication.resyncs", float64(p.Resyncs))
		}
	}
	start := time.Now()
	if _, err := n.dep.Snapshot(context.Background()); err == nil {
		t.dur("durable.snapshot", time.Since(start))
	}
}

// replayed notes one reopen of a data directory of size bytes.
func (t *tracer) replayed(dir string, d time.Duration) {
	var size int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			size += info.Size()
		}
		return nil
	})
	t.count("durable.replay_bytes", float64(size))
	t.count("durable.replay_ns", float64(d.Nanoseconds()))
}

// roundDone links this round's per-event records into samples and
// clears them: event ids restart every round.
func (t *tracer) roundDone() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.pubs {
		ivs := t.ingress[p.first]
		if len(ivs) == 0 {
			continue
		}
		lo, hi, minEnd := ivs[0].start, ivs[0].end, ivs[0].end
		covered := int64(0)
		sorted := append([]ival(nil), ivs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
		cur := sorted[0]
		for _, iv := range sorted[1:] {
			if iv.start <= cur.end {
				if iv.end > cur.end {
					cur.end = iv.end
				}
				continue
			}
			covered += cur.end - cur.start
			cur = iv
		}
		covered += cur.end - cur.start
		for _, iv := range ivs {
			lo, hi = min(lo, iv.start), max(hi, iv.end)
			minEnd = min(minEnd, iv.end)
		}
		if len(ivs) == 1 {
			t.durs["reefstream.publish_wire"] = append(t.durs["reefstream.publish_wire"], float64(p.rtt-covered)/1e3)
		} else {
			t.durs["reefcluster.fanout_self"] = append(t.durs["reefcluster.fanout_self"], float64(p.rtt-covered)/1e3)
			t.durs["reefcluster.fanout_skew"] = append(t.durs["reefcluster.fanout_skew"], float64(hi-minEnd)/1e3)
		}
	}
	for id, at := range t.recv {
		if ret, ok := t.fetchRet[id]; ok && at >= ret {
			t.durs["reefstream.push"] = append(t.durs["reefstream.push"], float64(at-ret)/1e3)
		}
	}
	t.pubs = t.pubs[:0]
	t.ingress = map[uint64][]ival{}
	t.fetchRet = map[uint64]int64{}
	t.recv = map[uint64]int64{}
}

// selfTimes derives, per REST request, each level's span minus the
// time its children cover: level 1 is the reefhttp round trip (minus
// the handler's deployment call), level 0 the router's forward (minus
// its round trips to the nodes).
func (t *tracer) selfTimes() (httpSelf, forwardSelf []float64) {
	byID := map[trace.ID][]span{}
	for _, s := range t.spans {
		byID[s.id] = append(byID[s.id], s)
	}
	for _, ss := range byID {
		for _, parent := range ss {
			if parent.level == 2 {
				continue
			}
			child := int64(0)
			n := 0
			for _, c := range ss {
				if c.level == parent.level+1 && c.start >= parent.start && c.end <= parent.end {
					child += c.end - c.start
					n++
				}
			}
			if n == 0 {
				continue
			}
			self := float64(parent.end-parent.start-child) / 1e3
			if parent.level == 1 {
				httpSelf = append(httpSelf, self)
			} else {
				forwardSelf = append(forwardSelf, self)
			}
		}
	}
	return httpSelf, forwardSelf
}

// replayMatch publishes the run's events, by feed, into a broker
// holding the run's subscription filters, and returns ns per event.
func (t *tracer) replayMatch() float64 {
	if len(t.filters) == 0 || len(t.events) == 0 {
		return 0
	}
	b := pubsub.NewBroker("replay", nil)
	defer b.Close()
	for _, feed := range t.filters {
		f := eventalg.NewFilter(
			eventalg.C("type", eventalg.OpEq, eventalg.String("feed-item")),
			eventalg.C("feed", eventalg.OpEq, eventalg.String(feed)))
		if _, err := b.Subscribe(f, pubsub.WithQueueSize(1)); err != nil {
			return 0
		}
	}
	evs := make([]pubsub.Event, 0, 256)
	n := min(len(t.events), 50000)
	start := time.Now()
	for i := 0; i < n; i += 256 {
		evs = evs[:0]
		for _, feed := range t.events[i:min(i+256, n)] {
			evs = append(evs, pubsub.NewEvent("replay", eventalg.Tuple{
				"type": eventalg.String("feed-item"), "feed": eventalg.String(feed)}, nil))
		}
		_, _ = b.PublishBatch(context.Background(), evs)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// replayJournal appends the run's journaled records to a fresh file
// journal and returns ns per record.
func (t *tracer) replayJournal(dir string) float64 {
	if len(t.records) == 0 {
		return 0
	}
	jdir := filepath.Join(dir, "journal-replay")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return 0
	}
	defer os.RemoveAll(jdir)
	be, err := durable.OpenFile(jdir, durable.FileOptions{Sync: durable.SyncAsync})
	if err != nil {
		return 0
	}
	j := durable.NewJournal(be)
	defer j.Close()
	j.Arm(func() (*durable.State, error) { return &durable.State{}, nil }, 0)
	start := time.Now()
	for _, r := range t.records {
		r := r
		if err := j.Record(func() error { return nil }, func() durable.Record { return r }); err != nil {
			return 0
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(t.records))
}

// replayTerms tokenises and stems every crawled page and returns ns
// per page.
func (t *tracer) replayTerms() float64 {
	if len(t.pages) == 0 {
		return 0
	}
	start := time.Now()
	for _, body := range t.pages {
		ir.TermCounts(websim.ExtractText(body))
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(t.pages))
}

// perLayer turns the run's spans, counters and replays into the
// per-layer metrics. A layer a workload does not use reads 0.
func (t *tracer) perLayer(res *results, dataDir string) map[string]metric {
	t.mu.Lock()
	defer t.mu.Unlock()
	httpSelf, fwdSelf := t.selfTimes()
	q := func(name string, p float64) float64 { return quantile(t.durs[name], p) }
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ops := float64(res.busyOps)
	rounds := t.counts["core.rounds"]
	sum := func(name string) float64 {
		s := 0.0
		for _, v := range t.durs[name] {
			s += v
		}
		return s
	}
	m := map[string]metric{
		"gen.late_p50_us":                 {quantile(res.lateUs, 0.5), "us"},
		"gen.late_p99_us":                 {quantile(res.lateUs, 0.99), "us"},
		"gen.publish_p90_us":              {quantile(res.publishUs, 0.9), "us"},
		"gen.deliver_p90_us":              {quantile(res.deliverUs, 0.9), "us"},
		"gen.call_p90_us":                 {quantile(res.callUs, 0.9), "us"},
		"gen.publish_p99_us":              {quantile(res.publishUs, 0.99), "us"},
		"gen.deliver_p99_us":              {quantile(res.deliverUs, 0.99), "us"},
		"gen.call_p99_us":                 {quantile(res.callUs, 0.99), "us"},
		"reefcluster.forward_self_p50_us": {quantile(fwdSelf, 0.5), "us"},
		"reefcluster.fanout_self_p50_us":  {q("reefcluster.fanout_self", 0.5), "us"},
		"reefcluster.fanout_skew_p99_us":  {q("reefcluster.fanout_skew", 0.99), "us"},
		"reefstream.publish_wire_p50_us":  {q("reefstream.publish_wire", 0.5), "us"},
		"reefstream.events_per_apply":     {per(t.counts["reef.ingress_events"], t.counts["reef.ingress_calls"]), "count"},
		"reefstream.push_p50_us":          {q("reefstream.push", 0.5), "us"},
		"reefstream.events_per_ack":       {per(float64(res.consumed), float64(res.acks)), "count"},
		"reefstream.bytes_per_event":      {per(float64(t.streamIO.Load()), t.counts["flow.events"]), "B"},
		"reefhttp.call_self_p50_us":       {quantile(httpSelf, 0.5), "us"},
		"reefhttp.bytes_per_call":         {per(t.counts["reefhttp.bytes"], t.counts["reefhttp.calls"]), "B"},
		"reef.ingress_us_per_event":       {per(sum("reef.ingress"), t.counts["reef.ingress_events"]), "us"},
		"reef.ingest_us_per_click":        {per(sum("reef.ingest"), t.counts["reef.ingest_clicks"]), "us"},
		"pubsub.match_ns_per_event":       {t.replayMatch(), "ns"},
		"pubsub.deliveries_per_event":     {per(t.counts["flow.deliveries"], t.counts["flow.events"]), "count"},
		"pubsub.dropped_per_kevent":       {per(t.counts["pubsub.dropped"]*1000, t.counts["flow.events"]), "count"},
		"delivery.fetch_p50_us":           {q("delivery.fetch", 0.5), "us"},
		"delivery.ack_p50_us":             {q("delivery.ack", 0.5), "us"},
		"delivery.retained_p99":           {q("delivery.retained", 0.99), "events"},
		"delivery.redeliveries":           {t.counts["delivery.redeliveries"], "count"},
		"durable.wal_bytes_per_op":        {per(t.counts["durable.bytes"], float64(res.attempted)), "B"},
		"durable.wal_records_per_op":      {per(t.counts["durable.records"], float64(res.attempted)), "count"},
		"durable.append_ns_per_record":    {t.replayJournal(dataDir), "ns"},
		"durable.snapshot_ms":             {q("durable.snapshot", 0.5) / 1e3, "ms"},
		"durable.replay_mb_per_s":         {per(t.counts["durable.replay_bytes"]/1e6, t.counts["durable.replay_ns"]/1e9), "MB/s"},
		"replication.ship_records_per_op": {per(t.counts["replication.shipped"], float64(res.attempted)), "count"},
		"replication.pending_p99":         {q("replication.pending", 0.99), "entries"},
		"replication.resyncs":             {t.counts["replication.resyncs"], "count"},
		"core.round_p50_ms":               {q("core.round", 0.5) / 1e3, "ms"},
		"crawler.fetches_per_round":       {per(t.counts["crawler.fetches"], rounds), "count"},
		"crawler.fetch_busy_ms_per_round": {per(t.counts["crawler.fetch_ns"]/1e6, rounds), "ms"},
		"ir.terms_ns_per_page":            {t.replayTerms(), "ns"},
		"ir.corpus_docs":                  {float64(len(t.pages)), "count"},
		"recommend.recs_per_round":        {per(t.counts["recommend.recs"], rounds), "count"},
		"waif.poll_p50_ms":                {q("waif.poll", 0.5) / 1e3, "ms"},
		"waif.items_per_poll":             {per(t.counts["waif.items"], float64(len(t.durs["waif.poll"]))), "count"},
		"metrics.scrape_p50_us":           {q("metrics.scrape", 0.5), "us"},
		"metrics.scrape_kb":               {per(t.counts["metrics.scrape_bytes"]/1024, float64(len(t.durs["metrics.scrape"]))), "KB"},
		"runtime.gc_per_kop":              {per(float64(res.busy.GCs)*1000, ops), "count"},
		"runtime.alloc_bytes_per_op":      {per(float64(res.busy.AllocBytes), ops), "B"},
		"runtime.gc_pause_p99_us":         {quantile(res.busy.GCPausesUs, 0.99), "us"},
	}
	all := res.figures()
	for figure, name := range layerFigures {
		m[name] = all[figure]
	}
	return m
}
