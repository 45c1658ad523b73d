package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"reef"
	"reef/internal/pubsub"
)

// publisher and consumer are the data-plane surfaces a flow drives:
// reefstream.Client and reefcluster.Cluster implement both, restPlane
// implements them over REST.
type publisher interface {
	PublishBatch(ctx context.Context, evs []reef.Event) (int, error)
}

type consumer interface {
	FetchEvents(ctx context.Context, user, subID string, max int) ([]reef.DeliveredEvent, error)
	Ack(ctx context.Context, user, subID string, seq int64, nack bool) error
}

// relSub is one at-least-once subscription a flow consumes.
type relSub struct {
	user, id, feed string
}

// flowOp is one publish call: a batch of events, each naming its feed
// and payload size.
type flowOp struct {
	feeds []int
	sizes []int
}

// flowInput is the seeded input of one flow: the feeds, their expected
// fan-out and the pre-generated publish schedule.
type flowInput struct {
	feeds  []string
	fanout []int // subscriptions matching feed i, per the generator's own filter evaluation
	attrs  []map[string]string
	open   []flowOp
	closed []flowOp
	window []flowOp // crash-window publishes (stream-reliable only)
}

// payloadSizes is the spread of event payload sizes, in bytes, with
// their weights: mostly small notifications, some 1–4 KiB items.
var payloadSizes = []struct{ size, weight int }{{64, 50}, {256, 30}, {1024, 15}, {4096, 5}}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func drawSize(rng *rand.Rand) int {
	w := rng.Intn(100)
	for _, p := range payloadSizes {
		if w < p.weight {
			return p.size
		}
		w -= p.weight
	}
	return payloadSizes[0].size
}

// makeOps draws n publish calls over feeds chosen by pick. Batch sizes
// cycle through 1..maxBatch, so the number of events, and with it the
// share of operations that fail, does not depend on the seed.
func makeOps(rng *rand.Rand, n, maxBatch int, pick func() int) []flowOp {
	ops := make([]flowOp, n)
	for i := range ops {
		b := 1 + i%maxBatch
		ops[i].feeds = make([]int, b)
		ops[i].sizes = make([]int, b)
		for j := 0; j < b; j++ {
			ops[i].feeds[j] = pick()
			ops[i].sizes[j] = drawSize(rng)
		}
	}
	return ops
}

// zipfCounts splits total over n ranks in proportion to 1/(rank+1)^s,
// so how many subscribers each feed rank gets does not depend on the
// seed; the seed only picks who they are.
func zipfCounts(total, n int, s float64) []int {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(math.Round(float64(total) * w[i] / sum))
	}
	return out
}

// chunk returns the c-th of n near-equal consecutive parts of s. The
// rounds interleave their measured phases in such parts, so each phase
// samples the whole round rather than one stretch of it: on a shared
// machine, other tenants' load comes and goes in bursts of seconds.
func chunk[T any](s []T, c, n int) []T { return s[c*len(s)/n : (c+1)*len(s)/n] }

func countEvents(ops []flowOp) int {
	n := 0
	for _, op := range ops {
		n += len(op.feeds)
	}
	return n
}

// fenceEvents bounds the events a round publishes outside its input's
// schedule (the crash-window fence).
const fenceEvents = 8

// Payload layout: 8-byte event number, filler, 4-byte CRC-32C of the
// preceding bytes. The consumer checks the checksum on every delivery.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func makePayload(id uint64, size int) []byte {
	if size < 12 {
		size = 12
	}
	p := make([]byte, size)
	binary.LittleEndian.PutUint64(p, id)
	for i := 8; i < size-4; i++ {
		p[i] = byte(id>>3) + byte(i)
	}
	binary.LittleEndian.PutUint32(p[size-4:], crc32.Checksum(p[:size-4], castagnoli))
	return p
}

func parsePayload(p []byte) (uint64, bool) {
	if len(p) < 12 {
		return 0, false
	}
	n := len(p)
	if crc32.Checksum(p[:n-4], castagnoli) != binary.LittleEndian.Uint32(p[n-4:]) {
		return 0, false
	}
	return binary.LittleEndian.Uint64(p), true
}

// flow is one round's reliable data plane: it publishes the input's
// events, consumes every reliable subscription and checks what arrives.
type flow struct {
	in      *flowInput
	pub     publisher
	subs    []relSub
	subOf   map[string]int     // feed -> index in subs
	ctx     context.Context    // publishes
	cancel  context.CancelFunc // ends the consumer loops
	nextID  atomic.Uint64
	sentAt  []atomic.Int64 // event id -> when it was handed to the program (Unix ns)
	feedOf  []atomic.Int32 // event id -> feed index
	errs    errList
	paused  atomic.Bool
	credit  *credits
	holds   []atomic.Bool // event id -> published under a closed-loop credit not yet released
	wg      sync.WaitGroup
	mu      sync.Mutex
	deliver []float64 // µs, recorded while measuring is set
	acks    []float64 // µs per consumer ack round trip
	measure atomic.Bool
	got     []*subProgress

	consumed, ackCount atomic.Int64
	// Deliveries the program acknowledged and the generator expected,
	// since the last checkDrops.
	ackedDeliveries, wantDeliveries atomic.Int64
}

// account adds the flow's consumer counts to res.
func (f *flow) account(res *results) {
	res.consumed += f.consumed.Load()
	res.acks += f.ackCount.Load()
}

// subProgress is a consumer's view of one subscription.
type subProgress struct {
	mu       sync.Mutex
	next     int64 // expected next sequence number
	received map[uint64]int
	count    int
	want     int
	notify   chan struct{}
}

// snapshot copies how often each event was received.
func (g *subProgress) snapshot() map[uint64]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[uint64]int, len(g.received))
	for id, n := range g.received {
		out[id] = n
	}
	return out
}

// resume sets the sequence number expected after a reopen.
func (g *subProgress) resume(next int64) {
	g.mu.Lock()
	g.next = next
	g.mu.Unlock()
}

// waitFor blocks until the subscription has received event id.
func (g *subProgress) waitFor(id uint64, timeout time.Duration) error {
	deadline := time.After(timeout)
	for {
		g.mu.Lock()
		n := g.received[id]
		g.mu.Unlock()
		if n > 0 {
			return nil
		}
		select {
		case <-g.notify:
		case <-deadline:
			return fmt.Errorf("event %d not delivered within %v", id, timeout)
		}
	}
}

// takeWindow removes the deliveries of a crashed window's events from
// the books and returns how many of them arrived again after the
// reopen; before holds the receipts counted before the crash.
func (g *subProgress) takeWindow(ids []uint64, before map[uint64]int) (redelivered int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, id := range ids {
		n := g.received[id]
		if n > before[id] {
			redelivered++
		}
		g.count -= n
		delete(g.received, id)
	}
	return redelivered
}

// errList collects correctness failures from many goroutines.
type errList struct {
	mu   sync.Mutex
	list []string
}

func (e *errList) addf(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.list) < 20 {
		e.list = append(e.list, fmt.Sprintf(format, args...))
	}
}

func (e *errList) err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.list) == 0 {
		return nil
	}
	return fmt.Errorf("%d check(s) failed, first: %s", len(e.list), e.list[0])
}

func newFlow(in *flowInput, pub publisher, subs []relSub, window int) *flow {
	events := countEvents(in.open) + countEvents(in.closed) + countEvents(in.window) + fenceEvents
	f := &flow{in: in, pub: pub, subs: subs, subOf: map[string]int{}, ctx: context.Background(),
		credit: newCredits(window, perSubCredit, len(subs)), holds: make([]atomic.Bool, events+1),
		sentAt: make([]atomic.Int64, events+1), feedOf: make([]atomic.Int32, events+1)}
	for i, s := range subs {
		f.subOf[s.feed] = i
		f.got = append(f.got, &subProgress{next: 1, received: map[uint64]int{}, notify: make(chan struct{}, 1)})
	}
	return f
}

// event builds one event of the flow and registers its number.
func (f *flow) event(feed, size int) reef.Event {
	id := f.nextID.Add(1)
	f.feedOf[id].Store(int32(feed))
	return reef.Event{Source: "reefperf", Attrs: f.in.attrs[feed], Payload: makePayload(id, size)}
}

// expect raises the number of deliveries each subscription must see.
func (f *flow) expect(ops []flowOp) {
	for _, op := range ops {
		for _, fd := range op.feeds {
			if i, ok := f.subOf[f.in.feeds[fd]]; ok {
				g := f.got[i]
				g.mu.Lock()
				g.want++
				g.mu.Unlock()
			}
		}
	}
}

// publishOp publishes one op and checks the delivery count the program
// acknowledged against the expected fan-out. It returns the round trip.
// With credited set, each event holds its subscription's credit until
// the consumer acks it.
func (f *flow) publishOp(op flowOp, credited bool) (time.Duration, error) {
	evs := make([]reef.Event, len(op.feeds))
	want := 0
	for j, fd := range op.feeds {
		evs[j] = f.event(fd, op.sizes[j])
		want += f.in.fanout[fd]
	}
	t0 := time.Now()
	for _, ev := range evs {
		id := binary.LittleEndian.Uint64(ev.Payload)
		f.holds[id].Store(credited)
		f.sentAt[id].Store(t0.UnixNano())
	}
	n, err := f.pub.PublishBatch(f.ctx, evs)
	rtt := time.Since(t0)
	if err != nil {
		return rtt, err
	}
	if tr != nil {
		first := binary.LittleEndian.Uint64(evs[0].Payload)
		tr.published(first, first+uint64(len(evs))-1, rtt, n)
	}
	// A best-effort subscription whose queue is full misses the event
	// (the default DropNewest policy); checkDrops accounts for those.
	if n > want {
		f.errs.addf("publish acknowledged %d deliveries, expected fan-out %d", n, want)
	}
	f.ackedDeliveries.Add(int64(n))
	f.wantDeliveries.Add(int64(want))
	return rtt, nil
}

// checkDrops checks that every delivery the generator expected since
// the last call was either acknowledged to the publisher or is among
// the dropped the brokers counted since then.
func (f *flow) checkDrops(dropped float64) {
	acked, want := f.ackedDeliveries.Swap(0), f.wantDeliveries.Swap(0)
	if float64(acked)+dropped != float64(want) {
		f.errs.addf("%d deliveries acknowledged and %.0f dropped, expected fan-out %d", acked, dropped, want)
	}
	if tr != nil {
		tr.count("pubsub.dropped", dropped)
	}
}

// perSubCredit caps the closed-loop events published to one reliable
// subscription and not yet acked at the program's per-subscription
// broker queue. Under the default DropNewest policy that queue drops
// what it cannot hold before the reliable queue retains it, so a
// publisher that outruns the consumer by more loses reliable events;
// see README.md.
const perSubCredit = pubsub.DefaultQueueSize

// credits bounds a closed loop's unacked events, in all and per
// reliable subscription.
type credits struct {
	mu         sync.Mutex
	cond       *sync.Cond
	total, max int
	sub        []int
	maxSub     int
}

func newCredits(max, maxSub, subs int) *credits {
	c := &credits{max: max, maxSub: maxSub, sub: make([]int, subs)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// acquire takes one credit per entry of subs (subscription indices,
// repeats allowed), waiting until all fit; false after timeout.
func (c *credits) acquire(subs []int, timeout time.Duration) bool {
	expired := false
	t := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		expired = true
		c.mu.Unlock()
		c.cond.Broadcast()
	})
	defer t.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.fits(subs) {
		if expired {
			return false
		}
		c.cond.Wait()
	}
	c.total += len(subs)
	for _, s := range subs {
		c.sub[s]++
	}
	return true
}

func (c *credits) fits(subs []int) bool {
	if c.total+len(subs) > c.max {
		return false
	}
	need := map[int]int{}
	for _, s := range subs {
		need[s]++
		if c.sub[s]+need[s] > c.maxSub {
			return false
		}
	}
	return true
}

func (c *credits) release(sub, n int) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	c.total -= n
	c.sub[sub] -= n
	c.mu.Unlock()
	c.cond.Broadcast()
}

// held is the number of credits taken and not released.
func (c *credits) held() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// startConsumers runs one fetch/ack loop per reliable subscription on c.
func (f *flow) startConsumers(c consumer) {
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := range f.subs {
		f.wg.Add(1)
		go f.consume(ctx, c, i)
	}
}

// stopConsumers ends the loops and waits for them.
func (f *flow) stopConsumers() {
	if f.cancel != nil {
		f.cancel()
	}
	f.wg.Wait()
}

func (f *flow) consume(ctx context.Context, c consumer, i int) {
	defer f.wg.Done()
	s, g := f.subs[i], f.got[i]
	for ctx.Err() == nil {
		evs, err := c.FetchEvents(ctx, s.user, s.id, 512)
		if err != nil {
			if ctx.Err() == nil {
				f.errs.addf("fetch %s/%s: %v", s.user, s.id, err)
				time.Sleep(10 * time.Millisecond)
			}
			continue
		}
		if len(evs) == 0 {
			continue
		}
		now := time.Now()
		g.mu.Lock()
		for _, d := range evs {
			id, ok := parsePayload(d.Event.Payload)
			if !ok || id >= uint64(len(f.feedOf)) {
				f.errs.addf("%s: payload checksum mismatch at seq %d", s.id, d.Seq)
				continue
			}
			if d.Seq != g.next {
				f.errs.addf("%s: seq %d, expected %d", s.id, d.Seq, g.next)
			}
			g.next = d.Seq + 1
			if f.in.feeds[f.feedOf[id].Load()] != s.feed {
				f.errs.addf("%s: event %d delivered to a subscription its filter does not match", s.id, id)
			}
			g.received[id]++
			g.count++
			f.consumed.Add(1)
			if tr != nil {
				tr.received(id, now)
			}
			if f.measure.Load() {
				f.mu.Lock()
				f.deliver = append(f.deliver, float64(now.UnixNano()-f.sentAt[id].Load())/1e3)
				f.mu.Unlock()
			}
		}
		g.mu.Unlock()
		select {
		case g.notify <- struct{}{}:
		default:
		}
		if f.paused.Load() {
			continue
		}
		t0 := time.Now()
		if err := c.Ack(ctx, s.user, s.id, evs[len(evs)-1].Seq, false); err != nil {
			if ctx.Err() == nil {
				f.errs.addf("ack %s: %v", s.id, err)
			}
			continue
		}
		rtt := time.Since(t0)
		f.ackCount.Add(1)
		if f.measure.Load() {
			f.mu.Lock()
			f.acks = append(f.acks, us(rtt))
			f.mu.Unlock()
		}
		released := 0
		for _, d := range evs {
			if id, ok := parsePayload(d.Event.Payload); ok && id < uint64(len(f.holds)) && f.holds[id].Swap(false) {
				released++
			}
		}
		f.credit.release(i, released)
	}
}

// takeSamples moves the deliveries and acks timed so far into res;
// with acks unset the ack round trips are dropped.
func (f *flow) takeSamples(res *results, acks bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	res.deliverUs = append(res.deliverUs, f.deliver...)
	if acks {
		res.callUs = append(res.callUs, f.acks...)
	}
	f.deliver, f.acks = f.deliver[:0], f.acks[:0]
}

// settleAcks acks every subscription up to the last event received,
// after the consumer loops stopped: an ack they abandoned in flight is
// cumulative and no higher, so the durable cursors end where the
// consumer is.
func (f *flow) settleAcks(ctx context.Context, c consumer) error {
	for i, s := range f.subs {
		g := f.got[i]
		g.mu.Lock()
		last := g.next - 1
		g.mu.Unlock()
		if last < 1 {
			continue
		}
		if err := c.Ack(ctx, s.user, s.id, last, false); err != nil {
			return fmt.Errorf("settle ack %s: %w", s.id, err)
		}
	}
	return nil
}

// deliveryWait bounds how long a phase waits for its reliable
// deliveries; an event still missing at the end of the round is
// counted as failed.
const deliveryWait = 10 * time.Second

// waitDelivered blocks until every subscription has received what
// expect announced, or the timeout passes.
func (f *flow) waitDelivered(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for _, g := range f.got {
		for {
			g.mu.Lock()
			count, want := g.count, g.want
			g.mu.Unlock()
			if count >= want {
				break
			}
			left := time.Until(deadline)
			if left <= 0 {
				return
			}
			select {
			case <-g.notify:
			case <-time.After(left):
			}
		}
	}
}

// lost checks that no subscription received an event twice or one it
// was not owed, and returns how many reliable events it was owed and
// never received: each is a failed operation.
func (f *flow) lost() int {
	missing := 0
	for i, g := range f.got {
		g.mu.Lock()
		if g.count > g.want {
			f.errs.addf("%s received %d events, expected %d", f.subs[i].id, g.count, g.want)
		} else {
			missing += g.want - g.count
		}
		for id, n := range g.received {
			if n != 1 {
				f.errs.addf("%s received event %d %d times", f.subs[i].id, id, n)
			}
		}
		g.mu.Unlock()
	}
	return missing
}

// phaseResult is what one open- or closed-loop phase measured.
type phaseResult struct {
	publishUs []float64
	lateUs    []float64
	events    int
	elapsed   time.Duration
}

// openLoop sends ops at a fixed rate. The generator never waits for a
// reply: each op is handed to the program on its own goroutine, timed
// from that instant, so a stall shows in every op queued behind it.
// How late each hand-off ran against its schedule is reported too.
func (f *flow) openLoop(ops []flowOp, rate float64) phaseResult {
	f.expect(ops)
	interval := time.Duration(float64(time.Second) / rate)
	rtts := make([]float64, len(ops))
	sent := make([]time.Time, len(ops))
	var wg sync.WaitGroup
	f.measure.Store(true)
	start := time.Now()
	for i := range ops {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sent[i] = time.Now()
			rtt, err := f.publishOp(ops[i], false)
			if err != nil {
				f.errs.addf("publish: %v", err)
			}
			rtts[i] = us(rtt)
		}(i)
	}
	wg.Wait()
	res := phaseResult{publishUs: rtts, lateUs: lateness(start, interval, sent), events: countEvents(ops)}
	f.waitDelivered(deliveryWait)
	res.elapsed = time.Since(start)
	f.measure.Store(false)
	return res
}

// closedLoop publishes ops from workers callers, each waiting for its
// previous publish, while at most window events, and perSubCredit per
// reliable subscription, are published but not yet acked by the
// consumer. It returns once every event is delivered and acked.
func (f *flow) closedLoop(ops []flowOp, workers int) phaseResult {
	f.expect(ops)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				subs := make([]int, len(ops[i].feeds))
				for j, fd := range ops[i].feeds {
					subs[j] = f.subOf[f.in.feeds[fd]]
				}
				if !f.credit.acquire(subs, deliveryWait) {
					f.errs.addf("closed loop: no ack released a credit for %v", deliveryWait)
					return
				}
				if _, err := f.publishOp(ops[i], true); err != nil {
					f.errs.addf("publish: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	f.waitDelivered(deliveryWait)
	// The last acks release their credits after the deliveries land.
	for deadline := time.Now().Add(deliveryWait); f.credit.held() > 0 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	return phaseResult{events: countEvents(ops), elapsed: time.Since(start)}
}
