package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"reef"
	"reef/reefstream"
)

// stream-reliable: one node with two shards, one reefstream publisher
// connection and one consumer connection against at-least-once
// subscriptions, best-effort background subscriptions setting the
// broker index's selectivity. See README.md for the input make-up.
const (
	srLiveFeeds     = 32   // feeds events are published to, Zipf-popular
	srColdFeeds     = 4000 // feeds only background subscriptions name
	srBgUsers       = 500
	srLiveSubs      = 80 // background subscriptions on live feeds, Zipf over feed rank
	srZipfS         = 1.2
	srOpenOps       = 1200 // open-loop publish calls per round
	srOpenRate      = 600  // publish calls per second, about a sixth of the sustained rate
	srClosedOps     = 8000
	srMaxBatch      = 8
	srWindow        = 2048 // closed-loop events published but not yet acked
	srCrashWindow   = 64   // events published into the crashed window
	srClickBatches  = 6000
	srClickBatch    = 25
	srPreloadClicks = 120 // per background user, uploaded at set-up
	srRoundSeconds  = 8   // a run makes --seconds / srRoundSeconds rounds
	srChunks        = 4   // interleaved slices of the measured phases per round
)

type streamInput struct {
	flow    flowInput
	bgSubs  [][]string // background user -> feeds
	relSubs []relSub
	clicks  [][]reef.Click
	history [][]reef.Click // background user -> preloaded attention history
}

func liveFeedURL(i int) string { return fmt.Sprintf("http://live%02d.feeds.test/rss.xml", i) }

func feedAttrs(feed string) map[string]string {
	return map[string]string{"type": "feed-item", "feed": feed, "title": "item", "link": feed + "#item"}
}

func makeStreamInput(seed int64) *streamInput {
	rng := rand.New(rand.NewSource(seed))
	in := &streamInput{}
	fl := &in.flow
	for i := 0; i < srLiveFeeds; i++ {
		fl.feeds = append(fl.feeds, liveFeedURL(i))
		fl.attrs = append(fl.attrs, feedAttrs(liveFeedURL(i)))
		fl.fanout = append(fl.fanout, 1) // the feed's reliable subscription
		in.relSubs = append(in.relSubs, relSub{user: fmt.Sprintf("rel-%02d", i), id: liveFeedURL(i), feed: liveFeedURL(i)})
	}
	zipf := rand.NewZipf(rng, srZipfS, 1, srLiveFeeds-1)
	pick := func() int { return int(zipf.Uint64()) }
	in.bgSubs = make([][]string, srBgUsers)
	for fd, n := range zipfCounts(srLiveSubs, srLiveFeeds, srZipfS) {
		for _, u := range rng.Perm(srBgUsers)[:n] {
			in.bgSubs[u] = append(in.bgSubs[u], fl.feeds[fd])
		}
		fl.fanout[fd] += n
	}
	for u := range in.bgSubs {
		for _, c := range rng.Perm(srColdFeeds)[:1+u%3] {
			in.bgSubs[u] = append(in.bgSubs[u], fmt.Sprintf("http://cold%04d.feeds.test/rss.xml", c))
		}
	}
	fl.open = makeOps(rng, srOpenOps, srMaxBatch, pick)
	fl.closed = makeOps(rng, srClosedOps, srMaxBatch, pick)
	fl.window = make([]flowOp, srCrashWindow/8)
	for i := range fl.window {
		fl.window[i] = flowOp{feeds: make([]int, 8), sizes: make([]int, 8)}
		for j := range fl.window[i].sizes {
			fl.window[i].sizes[j] = drawSize(rng)
		}
	}
	at := time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)
	in.history = make([][]reef.Click, srBgUsers)
	for u := range in.history {
		for i := 0; i < srPreloadClicks; i++ {
			in.history[u] = append(in.history[u], reef.Click{User: bgUser(u),
				URL: fmt.Sprintf("http://site%03d.web.test/p/%d.html", rng.Intn(500), rng.Intn(40)),
				At:  at.Add(-time.Duration(srPreloadClicks-i) * time.Minute)})
		}
	}
	for b := 0; b < srClickBatches; b++ {
		batch := make([]reef.Click, srClickBatch)
		for i := range batch {
			batch[i] = reef.Click{
				User: bgUser(rng.Intn(srBgUsers)),
				URL:  fmt.Sprintf("http://site%03d.web.test/p/%d.html", rng.Intn(500), rng.Intn(40)),
				At:   at.Add(time.Duration(b*srClickBatch+i) * time.Second),
			}
		}
		in.clicks = append(in.clicks, batch)
	}
	return in
}

func bgUser(i int) string { return fmt.Sprintf("bg-%04d", i) }

// streamNodeOpts are the node's options; dir is its data directory.
func streamNodeOpts(dir string) []reef.Option {
	return []reef.Option{
		reef.WithFetcher(noWeb{}),
		reef.WithShards(2),
		reef.WithDataDir(dir),
		reef.WithSyncPolicy(reef.SyncAsync),
	}
}

// streamRound runs one round of stream-reliable.
func streamRound(ctx context.Context, in *streamInput, dir string, res *results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Set-up: open the data directory, preload every subscription
	// through the public API, start serving.
	t0 := time.Now()
	spec := nodeSpec{id: "sr0", opts: streamNodeOpts(dir)}
	n, err := openNode(spec)
	if err != nil {
		return err
	}
	defer func() { n.close() }()
	for u, feeds := range in.bgSubs {
		if _, err := n.api.IngestClicks(ctx, in.history[u]); err != nil {
			return fmt.Errorf("preload clicks: %w", err)
		}
		for _, feed := range feeds {
			if _, err := n.api.Subscribe(ctx, bgUser(u), feed); err != nil {
				return fmt.Errorf("preload subscription: %w", err)
			}
		}
	}
	for _, s := range in.relSubs {
		if _, err := n.api.Subscribe(ctx, s.user, s.feed, reef.WithGuarantee(reef.AtLeastOnce),
			reef.WithAckTimeout(time.Minute), reef.WithMaxAttempts(1000)); err != nil {
			return fmt.Errorf("preload reliable subscription: %w", err)
		}
	}
	res.setupS = append(res.setupS, time.Since(t0).Seconds())
	settle()

	pubc := reefstream.NewClient(n.streamAddr(), reefstream.WithExpectNode("sr0"))
	conc := reefstream.NewClient(n.streamAddr(), reefstream.WithExpectNode("sr0"))
	closeClients := func() { _ = pubc.Close(); _ = conc.Close() }
	defer func() { closeClients() }()

	mon := startMonitor(n)
	defer func() { mon.stop() }()

	f := newFlow(&in.flow, pubc, in.relSubs, srWindow)
	f.startConsumers(conc)

	for c := 0; c < srChunks; c++ {
		res.startSlice()
		open := f.openLoop(chunk(in.flow.open, c, srChunks), srOpenRate)
		res.publishUs = append(res.publishUs, open.publishUs...)
		res.lateUs = append(res.lateUs, open.lateUs...)
		res.attempted += int64(open.events)
		f.takeSamples(res, true)

		meter := startBusy()
		closed := f.closedLoop(chunk(in.flow.closed, c, srChunks), 2)
		res.addBusy(meter.stop(), closed.events)
		res.sustained.add(closed.events, closed.elapsed)
		res.attempted += int64(closed.events)

		// Clicks: closed-loop in-process ingest into the same node
		// (node ingress and journal; no REST).
		batches := chunk(in.clicks, c, srChunks)
		clicks, el := ingestClicks(ctx, n.api, batches, 2)
		if want := len(batches) * srClickBatch; clicks != want {
			return fmt.Errorf("ingested %d clicks, uploaded %d", clicks, want)
		}
		res.clicks.add(clicks, el)
		res.attempted += int64(clicks)
		res.endSlice()
	}
	res.heapMB = append(res.heapMB, heapLiveMB())

	// Crash window: the consumer stops acking, W events are published
	// and retained, the node crashes and reopens on its directory.
	f.paused.Store(true)
	winSub := f.subOf[in.flow.feeds[0]]
	var winIDs []uint64
	for _, op := range in.flow.window {
		first := f.nextID.Load() + 1
		if _, err := f.publishOp(op, false); err != nil {
			return fmt.Errorf("crash-window publish: %w", err)
		}
		for id := first; id <= f.nextID.Load(); id++ {
			winIDs = append(winIDs, id)
		}
	}
	if err := waitRetained(ctx, n.dep, len(winIDs)); err != nil {
		return fmt.Errorf("crash window: %w", err)
	}
	f.checkDrops(brokerDropped(n))
	f.stopConsumers()
	before := f.got[winSub].snapshot()
	closeClients()
	mon.stop()
	n.stopServing()
	if err := n.dep.Crash(); err != nil {
		return fmt.Errorf("crash: %w", err)
	}
	t1 := time.Now()
	dep, err := reef.NewCentralized(spec.opts...)
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	res.recoverS = append(res.recoverS, time.Since(t1).Seconds())
	if tr != nil {
		tr.replayed(dir, time.Since(t1))
	}
	if n, err = serveNode(spec, dep); err != nil {
		return err
	}
	mon = startMonitor(n)
	pubc = reefstream.NewClient(n.streamAddr(), reefstream.WithExpectNode("sr0"))
	conc = reefstream.NewClient(n.streamAddr(), reefstream.WithExpectNode("sr0"))
	f.pub = pubc
	// Each subscription resumes after its durable cursor.
	for i, s := range in.relSubs {
		subs, err := n.dep.Subscriptions(ctx, s.user)
		if err != nil || len(subs) != 1 {
			return fmt.Errorf("reliable subscription of %s after reopen: %v (%d)", s.user, err, len(subs))
		}
		f.got[i].resume(subs[0].Acked + 1)
	}
	f.paused.Store(false)
	f.startConsumers(conc)
	// The fence trails the window on its subscription: every retained
	// window event would be redelivered ahead of it.
	fence := []flowOp{{feeds: []int{0}, sizes: []int{64}}}
	f.expect(fence)
	if _, err := f.publishOp(fence[0], false); err != nil {
		return fmt.Errorf("fence publish: %w", err)
	}
	if err := f.got[winSub].waitFor(f.nextID.Load(), 30*time.Second); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	f.stopConsumers()
	redelivered := f.got[winSub].takeWindow(winIDs, before)
	res.attempted += int64(len(winIDs) + 1)
	res.failed += int64(len(winIDs) - redelivered)
	res.failed += int64(f.lost())
	f.checkDrops(brokerDropped(n))
	f.account(res)
	if tr != nil {
		tr.nodeDone(n)
	}
	return f.errs.err()
}

// ingestClicks uploads batches from workers closed-loop callers and
// returns the clicks ingested and the elapsed time.
func ingestClicks(ctx context.Context, dep reef.Deployment, batches [][]reef.Click, workers int) (int, time.Duration) {
	var next, total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(batches) {
					return
				}
				n, err := dep.IngestClicks(ctx, batches[i])
				if err != nil {
					continue
				}
				total.Add(int64(n))
			}
		}()
	}
	wg.Wait()
	return int(total.Load()), time.Since(start)
}

// waitRetained polls the node until its reliable queues hold exactly
// want unacked events.
func waitRetained(ctx context.Context, dep reef.Deployment, want int) error {
	var got float64
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		st, err := dep.Stats(ctx)
		if err != nil {
			return err
		}
		if got = st["delivery_retained"]; int(got) == want {
			return nil
		}
	}
	return fmt.Errorf("%v events retained, want %d", got, want)
}

func roundDir(base string, round int) string {
	return filepath.Join(base, fmt.Sprintf("round-%03d", round))
}
