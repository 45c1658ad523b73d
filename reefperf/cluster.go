package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"reef"
	"reef/internal/replication"
	"reef/reefcluster"
)

// cluster-replicated: three file-backed nodes with replication at k=1
// behind an in-process reefcluster router the generator calls directly.
const (
	crNodes        = 3
	crReplicas     = 1
	crUsers        = 400
	crLiveFeeds    = 8  // each with one reliable consumer
	crLiveSubs     = 50 // best-effort subscriptions on live feeds, Zipf over feed rank
	crColdFeeds    = 600
	crZipfS        = 1.1
	crOpenOps      = 750  // open-loop mix operations per round
	crOpenRate     = 250  // mix operations per second
	crClosedOps    = 3200 // closed-loop fan-out publish calls
	crMaxBatch     = 8
	crWindow       = 2048
	crClickBatches = 4000
	crClickBatch   = 10
	crHistory      = 100 // clicks per user preloaded at set-up
	crPreloaders   = 2   // workers preloading the users at set-up
	crReopens      = 3   // reopens of n0's directory per round, one recover_s sample each
	crRoundSeconds = 10  // a run makes --seconds / crRoundSeconds rounds
	crChunks       = 6   // interleaved slices of the measured phases per round
)

// crMix is the open-loop mix's fixed cycle of operation kinds: 35%
// publish, 20% click uploads, 15% subscribe churn, 15% Subscriptions
// and 15% Recommendations.
var crMix = []string{
	"publish", "clicks", "publish", "subscriptions", "churn",
	"publish", "recommendations", "clicks", "publish", "subscriptions",
	"publish", "churn", "clicks", "publish", "recommendations",
	"subscriptions", "publish", "churn", "clicks", "recommendations",
}

// crOp is one open-loop mix operation.
type crOp struct {
	kind  string // "publish", "clicks", "churn", "subscriptions", "recommendations"
	user  string
	pub   flowOp
	feed  string // churn: the feed subscribed
	unsub bool   // churn: unsubscribe again in the same operation
	click []reef.Click
}

type clusterInput struct {
	flow    flowInput
	users   []string
	subs    map[string][]string // user -> preloaded best-effort feeds
	history map[string][]reef.Click
	relSubs []relSub
	mix     []crOp
	clicks  [][]reef.Click
}

func crUser(i int) string { return fmt.Sprintf("user-%03d", i) }

func makeClusterInput(seed int64) *clusterInput {
	rng := rand.New(rand.NewSource(seed))
	in := &clusterInput{subs: map[string][]string{}, history: map[string][]reef.Click{}}
	fl := &in.flow
	for i := 0; i < crLiveFeeds; i++ {
		feed := liveFeedURL(i)
		fl.feeds = append(fl.feeds, feed)
		fl.attrs = append(fl.attrs, feedAttrs(feed))
		fl.fanout = append(fl.fanout, 1)
		in.relSubs = append(in.relSubs, relSub{user: fmt.Sprintf("rel-%02d", i), id: feed, feed: feed})
	}
	feedZipf := rand.NewZipf(rng, crZipfS, 1, crLiveFeeds-1)
	pickFeed := func() int { return int(feedZipf.Uint64()) }
	at := time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)
	click := func(user string, i int) reef.Click {
		return reef.Click{User: user, At: at.Add(time.Duration(i) * time.Second),
			URL: fmt.Sprintf("http://site%03d.web.test/p/%d.html", rng.Intn(300), rng.Intn(30))}
	}
	for u := 0; u < crUsers; u++ {
		user := crUser(u)
		in.users = append(in.users, user)
		for _, c := range rng.Perm(crColdFeeds)[:1+u%3] {
			in.subs[user] = append(in.subs[user], fmt.Sprintf("http://cold%03d.feeds.test/rss.xml", c))
		}
		for i := 0; i < crHistory; i++ {
			in.history[user] = append(in.history[user], click(user, i))
		}
	}
	for fd, n := range zipfCounts(crLiveSubs, crLiveFeeds, crZipfS) {
		for _, u := range rng.Perm(crUsers)[:n] {
			in.subs[crUser(u)] = append(in.subs[crUser(u)], fl.feeds[fd])
		}
		fl.fanout[fd] += n
	}
	// Each user's warm replica holds its subscriptions too, and the
	// router's publish ack counts the replica's deliveries with the
	// primary's.
	for i := range fl.fanout {
		fl.fanout[i] *= 1 + crReplicas
	}
	userZipf := rand.NewZipf(rng, crZipfS, 1, crUsers-1)
	pickUser := func() string { return crUser(int(userZipf.Uint64())) }
	pubs := makeOps(rng, crOpenOps, crMaxBatch, pickFeed)
	for i := 0; i < crOpenOps; i++ {
		op := crOp{user: pickUser(), kind: crMix[i%len(crMix)]}
		switch op.kind {
		case "publish":
			op.pub = pubs[len(fl.open)]
			fl.open = append(fl.open, op.pub)
		case "clicks":
			for j := 0; j < 5; j++ {
				op.click = append(op.click, click(op.user, 1000+i*5+j))
			}
		case "churn":
			op.feed = fmt.Sprintf("http://churn%04d.feeds.test/rss.xml", i)
			op.unsub = i%2 == 0
		}
		in.mix = append(in.mix, op)
	}
	fl.closed = makeOps(rng, crClosedOps, crMaxBatch, pickFeed)
	for b := 0; b < crClickBatches; b++ {
		user := pickUser()
		var batch []reef.Click
		for j := 0; j < crClickBatch; j++ {
			batch = append(batch, click(user, 100000+b*crClickBatch+j))
		}
		in.clicks = append(in.clicks, batch)
	}
	return in
}

// fleet is one round's three nodes and router.
type fleet struct {
	nodes []*node
	specs []nodeSpec
	dirs  []string
	cl    *reefcluster.Cluster
}

func crNodeOpts(dir string) []reef.Option {
	return []reef.Option{
		reef.WithFetcher(noWeb{}),
		reef.WithShards(1),
		reef.WithDataDir(dir),
		reef.WithSyncPolicy(reef.SyncAsync),
	}
}

func startFleet(base string) (*fleet, error) {
	f := &fleet{}
	lns := make([]net.Listener, crNodes)
	peers := make([]replication.Node, crNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		peers[i] = replication.Node{ID: fmt.Sprintf("n%d", i), BaseURL: "http://" + ln.Addr().String()}
	}
	var cfgNodes []reefcluster.Node
	for i := range lns {
		dir := filepath.Join(base, peers[i].ID)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		id := peers[i].ID
		spec := nodeSpec{id: id, opts: crNodeOpts(dir), ln: lns[i],
			repl: func(dep *reef.Centralized) (*replication.Manager, error) {
				return replication.New(replication.Options{Self: id, Nodes: peers, Replicas: crReplicas,
					Applier: dep, Dir: filepath.Join(dir, "replication"), RetryInterval: 20 * time.Millisecond})
			}}
		n, err := openNode(spec)
		if err != nil {
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		f.specs = append(f.specs, spec)
		f.dirs = append(f.dirs, dir)
		cfgNodes = append(cfgNodes, reefcluster.Node{ID: id, BaseURL: n.url, StreamAddr: n.streamAddr()})
	}
	cfg := reefcluster.Config{Nodes: cfgNodes, Replicas: crReplicas,
		ProbeInterval: time.Hour, CallTimeout: 30 * time.Second}
	if tr != nil {
		cfg.HTTPClient = tracedHTTPClient()
	}
	cl, err := reefcluster.New(cfg)
	if err != nil {
		f.close()
		return nil, err
	}
	f.cl = cl
	cl.ProbeNow(context.Background())
	for _, st := range cl.Status() {
		if st.State != "up" {
			f.close()
			return nil, fmt.Errorf("node %s is %s after the first probe", st.Node.ID, st.State)
		}
	}
	return f, nil
}

func (f *fleet) close() {
	if f.cl != nil {
		_ = f.cl.Close()
	}
	for _, n := range f.nodes {
		n.close()
	}
}

// drained polls every replication manager until nothing is pending.
func (f *fleet) drained(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pending := int64(0)
		for _, n := range f.nodes {
			if n.mgr == nil {
				continue
			}
			st := n.mgr.Status()
			for _, p := range st.Peers {
				pending += p.Pending
			}
			if tr != nil {
				tr.replStatus(st)
			}
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication still has %d entries pending", pending)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// placement is the router's user placement, re-implemented here: the
// 32-bit FNV-1a hash of the user name modulo the node count.
func placement(user string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(user); i++ {
		h ^= uint32(user[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

func clusterRound(ctx context.Context, in *clusterInput, dir string, res *results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	f, err := startFleet(dir)
	if err != nil {
		return err
	}
	defer f.close()
	cl := f.cl
	// Two workers, one per core of the reference box, preload the
	// users: one at a time, set-up was a chain of some 1,200 router
	// round trips and moved with the host's wake-up latency.
	var wg sync.WaitGroup
	preloadErrs := make([]error, crPreloaders)
	for w := 0; w < crPreloaders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for u := w; u < len(in.users); u += crPreloaders {
				user := in.users[u]
				if _, err := cl.IngestClicks(ctx, in.history[user]); err != nil {
					preloadErrs[w] = fmt.Errorf("preload clicks: %w", err)
					return
				}
				for _, feed := range in.subs[user] {
					if _, err := cl.Subscribe(ctx, user, feed); err != nil {
						preloadErrs[w] = fmt.Errorf("preload subscription: %w", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range preloadErrs {
		if err != nil {
			return err
		}
	}
	for _, s := range in.relSubs {
		if _, err := cl.Subscribe(ctx, s.user, s.feed, reef.WithGuarantee(reef.AtLeastOnce),
			reef.WithAckTimeout(time.Minute), reef.WithMaxAttempts(1000)); err != nil {
			return fmt.Errorf("preload reliable subscription: %w", err)
		}
	}
	if err := f.drained(30 * time.Second); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	res.setupS = append(res.setupS, time.Since(t0).Seconds())
	settle()

	mon := startMonitor(f.nodes...)
	defer mon.stop()

	fl := newFlow(&in.flow, cl, in.relSubs, crWindow)
	fl.startConsumers(cl)
	defer fl.stopConsumers()

	for c := 0; c < crChunks; c++ {
		res.startSlice()
		mixLoop(ctx, cl, fl, chunk(in.mix, c, crChunks), res)
		fl.takeSamples(res, false)

		// Replication is drained before and after the closed loop, so
		// its CPU holds its own shipping and none of the phases before.
		if err := f.drained(30 * time.Second); err != nil {
			return err
		}
		meter := startBusy()
		closed := fl.closedLoop(chunk(in.flow.closed, c, crChunks), 16)
		if err := f.drained(30 * time.Second); err != nil {
			return err
		}
		res.addBusy(meter.stop(), closed.events)
		res.sustained.add(closed.events, closed.elapsed)
		res.attempted += int64(closed.events)

		batches := chunk(in.clicks, c, crChunks)
		clicks, el := ingestClicks(ctx, cl, batches, 4)
		if want := len(batches) * crClickBatch; clicks != want {
			return fmt.Errorf("ingested %d clicks, uploaded %d", clicks, want)
		}
		res.clicks.add(clicks, el)
		res.attempted += int64(clicks)
		res.endSlice()
	}
	res.heapMB = append(res.heapMB, heapLiveMB())

	fl.stopConsumers()
	res.failed += int64(fl.lost())
	fl.checkDrops(brokerDropped(f.nodes...))
	fl.account(res)
	if err := f.drained(30 * time.Second); err != nil {
		return err
	}
	if err := checkPlacement(ctx, f, in); err != nil {
		return err
	}

	// Recovery: node 0 stops and its data directory is reopened.
	want, err := listAll(ctx, f.nodes[0].dep, in)
	if err != nil {
		return err
	}
	if tr != nil {
		for _, n := range f.nodes {
			tr.nodeDone(n)
		}
	}
	f.nodes[0].close()
	for i := 0; i < crReopens; i++ {
		t1 := time.Now()
		dep, err := reef.NewCentralized(f.specs[0].opts...)
		if err != nil {
			return fmt.Errorf("reopen n0: %w", err)
		}
		res.recoverS = append(res.recoverS, time.Since(t1).Seconds())
		if tr != nil {
			tr.replayed(f.dirs[0], time.Since(t1))
		}
		got, err := listAll(ctx, dep, in)
		_ = dep.Close()
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("n0's subscriptions differ after reopen %d", i+1)
		}
	}
	return fl.errs.err()
}

// listAll lists every user's subscription IDs on one node's deployment.
func listAll(ctx context.Context, dep reef.Deployment, in *clusterInput) (map[string][]string, error) {
	out := map[string][]string{}
	users := append([]string(nil), in.users...)
	for _, s := range in.relSubs {
		users = append(users, s.user)
	}
	for _, user := range users {
		subs, err := dep.Subscriptions(ctx, user)
		if err != nil {
			return nil, fmt.Errorf("subscriptions of %s: %w", user, err)
		}
		for _, s := range subs {
			out[user] = append(out[user], s.ID)
		}
		sort.Strings(out[user])
	}
	return out, nil
}

// checkPlacement verifies on the nodes directly that each user's
// subscriptions live on the node the placement hash names, that its
// replica holds the same after the drain, and that the third node holds
// none of them.
func checkPlacement(ctx context.Context, f *fleet, in *clusterInput) error {
	lists := make([]map[string][]string, len(f.nodes))
	for i, n := range f.nodes {
		l, err := listAll(ctx, n.dep, in)
		if err != nil {
			return err
		}
		lists[i] = l
	}
	users := append([]string(nil), in.users...)
	for _, s := range in.relSubs {
		users = append(users, s.user)
	}
	for _, user := range users {
		p := placement(user, crNodes)
		primary := lists[p][user]
		if len(primary) == 0 {
			return fmt.Errorf("%s has no subscriptions on its placement node n%d", user, p)
		}
		replica := lists[(p+1)%crNodes][user]
		if !reflect.DeepEqual(primary, replica) {
			return fmt.Errorf("%s: replica n%d holds %v, primary n%d holds %v", user, (p+1)%crNodes, replica, p, primary)
		}
		if other := lists[(p+2)%crNodes][user]; len(other) != 0 {
			return fmt.Errorf("%s has subscriptions on n%d, outside its replica set", user, (p+2)%crNodes)
		}
	}
	return nil
}

// mixLoop runs part of the open-loop mix: every operation is handed to
// the router on its own goroutine at its scheduled time.
func mixLoop(ctx context.Context, cl *reefcluster.Cluster, fl *flow, mix []crOp, res *results) {
	var pubs []flowOp
	for _, op := range mix {
		if op.kind == "publish" {
			pubs = append(pubs, op.pub)
		}
	}
	fl.expect(pubs)
	var mu sync.Mutex
	var calls []float64
	timed := func(call func(context.Context) error) error { return timedCall(ctx, &calls, &mu, call) }
	publishUs := make([]float64, len(mix))
	sent := make([]time.Time, len(mix))
	interval := time.Second / crOpenRate
	fl.measure.Store(true)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range mix {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sent[i] = time.Now()
			op := mix[i]
			var err error
			switch op.kind {
			case "publish":
				var rtt time.Duration
				rtt, err = fl.publishOp(op.pub, false)
				publishUs[i] = us(rtt)
			case "clicks":
				err = timed(func(ctx context.Context) error {
					n, err := cl.IngestClicks(ctx, op.click)
					if err == nil && n != len(op.click) {
						err = fmt.Errorf("ingested %d of %d clicks", n, len(op.click))
					}
					return err
				})
			case "churn":
				err = timed(func(ctx context.Context) error { _, err := cl.Subscribe(ctx, op.user, op.feed); return err })
				if err == nil && op.unsub {
					err = timed(func(ctx context.Context) error { return cl.Unsubscribe(ctx, op.user, op.feed) })
				}
			case "subscriptions":
				err = timed(func(ctx context.Context) error { _, err := cl.Subscriptions(ctx, op.user); return err })
			case "recommendations":
				err = timed(func(ctx context.Context) error { _, err := cl.Recommendations(ctx, op.user); return err })
			}
			if err != nil {
				fl.errs.addf("%s for %s: %v", op.kind, op.user, err)
			}
		}(i)
	}
	wg.Wait()
	fl.waitDelivered(deliveryWait)
	fl.measure.Store(false)
	for i, op := range mix {
		if op.kind == "publish" {
			res.publishUs = append(res.publishUs, publishUs[i])
		}
	}
	res.callUs = append(res.callUs, calls...)
	res.lateUs = append(res.lateUs, lateness(start, interval, sent)...)
	res.attempted += int64(len(mix))
}
