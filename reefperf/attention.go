package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"reflect"
	"strconv"
	"time"

	"reef"
	"reef/internal/topics"
	"reef/internal/websim"
	"reef/internal/workload"
	"reef/reefclient"
	"reef/reefhttp"
)

// attention-pipeline: the paper's loop. A seeded synthetic web and
// click trace drive a two-shard file-backed Centralized deployment;
// clicks go up over REST user-day by user-day, the crawl/analysis
// pipeline runs every simulated night, subscribe recommendations are
// accepted over REST and feed polling fills the sidebars.
const (
	apUsers        = 60
	apDigestUsers  = 10 // the first users subscribe to the digest feed
	apDays         = 14 // the first apPreloadDays are preloaded at set-up
	apPreloadDays  = 7
	apNights       = apDays - apPreloadDays // measured nights, each followed by a slice of the digest phases
	apWebSeed      = 2006                   // the synthetic web is a fixed fixture; the users and their clicks come from the seed
	apWebScale     = 0.3
	apOpenOps      = 560 // REST digest publishes per round, open loop
	apOpenRate     = 400
	apClosedOps    = 8000
	apMaxBatch     = 4
	apWindow       = 256
	apRoundSeconds = 7 // a run makes --seconds / apRoundSeconds rounds
	apReopens      = 2 // reopens of the directory per round, one recover_s sample each
	digestFeed     = "http://digest.reef.test/daily.xml"
)

var apStart = time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)

// attentionInput is one round's seeded input: the web is rebuilt every
// round because feed polling advances it.
type attentionInput struct {
	seed int64
	flow flowInput
}

func makeAttentionInput(seed int64) *attentionInput {
	in := &attentionInput{seed: seed}
	fl := &in.flow
	fl.feeds = []string{digestFeed}
	fl.attrs = []map[string]string{feedAttrs(digestFeed)}
	fl.fanout = []int{apDigestUsers} // user00 reliably, the others best-effort
	rng := newRand(seed)
	pick := func() int { return 0 }
	fl.open = makeOps(rng, apOpenOps, apMaxBatch, pick)
	fl.closed = makeOps(rng, apClosedOps, apMaxBatch, pick)
	return in
}

// attentionTrace is the generated web and the user-days of clicks.
type attentionTrace struct {
	web   *websim.Web
	users []string
	days  [][]workload.Day // day index -> one entry per user
}

func makeTrace(seed int64) *attentionTrace {
	model := topics.NewModel(apWebSeed, 16, 50, 80)
	wcfg := websim.DefaultConfig(apWebSeed, apStart)
	wcfg.NumContentServers = int(float64(wcfg.NumContentServers) * apWebScale)
	wcfg.NumAdServers = int(float64(wcfg.NumAdServers) * apWebScale)
	wcfg.NumSpamServers = int(float64(wcfg.NumSpamServers) * apWebScale)
	t := &attentionTrace{web: websim.Generate(wcfg, model)}
	gen := workload.NewGenerator(workload.DefaultConfigAdjusted(seed, apStart, apUsers, apDays), t.web)
	for _, u := range gen.Users() {
		t.users = append(t.users, u.ID)
	}
	t.days = make([][]workload.Day, apDays)
	gen.GenerateAll(func(d workload.Day) {
		i := int(d.Date.Sub(apStart) / (24 * time.Hour))
		t.days[i] = append(t.days[i], d)
	})
	return t
}

func toClicks(d workload.Day) []reef.Click {
	out := make([]reef.Click, len(d.Clicks))
	for i, c := range d.Clicks {
		out[i] = reef.Click{User: d.User, URL: c.URL, At: c.At}
	}
	return out
}

// restPlane consumes a reliable subscription over REST with the
// server-side long-poll, on its own connection.
type restPlane struct {
	base string
	hc   *http.Client
	cl   *reefclient.Client
}

func oneConnClient() *http.Client {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	if tr != nil {
		rt = &tracedTransport{next: rt}
	}
	return &http.Client{Transport: rt, Timeout: 30 * time.Second}
}

func (p *restPlane) FetchEvents(ctx context.Context, user, subID string, max int) ([]reef.DeliveredEvent, error) {
	u := p.base + "/v1/subscriptions/" + url.PathEscape(subID) + "/events?user=" + url.QueryEscape(user) +
		"&max=" + strconv.Itoa(max) + "&wait=1s"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetch events: status %d", resp.StatusCode)
	}
	var out reefhttp.DeliveredResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("fetch events: %w", err)
	}
	return out.Events, nil
}

func (p *restPlane) Ack(ctx context.Context, user, subID string, seq int64, nack bool) error {
	return p.cl.Ack(ctx, user, subID, seq, nack)
}

// attentionChecker holds what the generator knows apart from the
// program: the pages each user clicked and every item the web
// published.
type attentionChecker struct {
	web       *websim.Web
	clicked   map[string]map[string]bool // user -> page URL
	published map[string]map[string]bool // feed URL -> item link
	held      map[string]map[string]bool // user -> feeds ever subscribed
	errs      *errList
}

func (c *attentionChecker) clickedAll(d workload.Day) {
	m := c.clicked[d.User]
	if m == nil {
		m = map[string]bool{}
		c.clicked[d.User] = m
	}
	for _, cl := range d.Clicks {
		m[cl.URL] = true
	}
}

// recordPublished notes every item the web's feeds carry now.
func (c *attentionChecker) recordPublished() {
	for _, s := range c.web.Servers(websim.KindContent) {
		for path, fs := range s.Feeds {
			feedURL := s.URL(path)
			m := c.published[feedURL]
			if m == nil {
				m = map[string]bool{}
				c.published[feedURL] = m
			}
			for _, it := range fs.Feed.Items {
				m[it.Link] = true
			}
		}
	}
}

// checkSubscribe: the feed is hosted by the web and advertised by a
// page the user clicked.
func (c *attentionChecker) checkSubscribe(user, feedURL string) {
	host, path, err := websim.SplitURL(feedURL)
	if err != nil {
		c.errs.addf("recommended feed %q: %v", feedURL, err)
		return
	}
	s, ok := c.web.Server(host)
	if !ok || s.Feeds[path] == nil {
		c.errs.addf("recommended feed %s is not hosted by the web", feedURL)
		return
	}
	for ppath, p := range s.Pages {
		for _, fp := range p.FeedPaths {
			if fp == path && c.clicked[user][s.URL(ppath)] {
				return
			}
		}
	}
	c.errs.addf("recommended feed %s is advertised by no page %s clicked", feedURL, user)
}

func (c *attentionChecker) checkSidebar(user string, items []reef.SidebarItem) {
	for _, it := range items {
		if !c.held[user][it.FeedURL] {
			c.errs.addf("%s's sidebar shows an item of %s, never subscribed", user, it.FeedURL)
		} else if !c.published[it.FeedURL][it.Link] {
			c.errs.addf("%s's sidebar shows %s, never published on %s", user, it.Link, it.FeedURL)
		}
	}
}

func attentionOpts(web *websim.Web, dir string) []reef.Option {
	var fetcher websim.Fetcher = web
	if tr != nil {
		fetcher = tracedFetcher{next: web}
	}
	return []reef.Option{
		reef.WithFetcher(fetcher),
		reef.WithShards(2),
		reef.WithDataDir(dir),
		reef.WithSyncPolicy(reef.SyncAsync),
		reef.WithPollInterval(2 * time.Hour),
		reef.WithSidebar(0, 48*time.Hour),
	}
}

// acceptAll lists the user's recommendations and subscriptions through
// d, checks each recommendation against the generator's own knowledge
// and accepts it. timed wraps the two listings, the calls every user
// makes every night; accepts, whose number depends on the trace, are
// not timed.
func acceptAll(ctx context.Context, d reef.Deployment, chk *attentionChecker, user string, timed func(func(context.Context) error) error) (int, error) {
	var recs []reef.Recommendation
	if err := timed(func(ctx context.Context) (err error) { recs, err = d.Recommendations(ctx, user); return err }); err != nil {
		return 0, err
	}
	var subs []reef.Subscription
	if err := timed(func(ctx context.Context) (err error) { subs, err = d.Subscriptions(ctx, user); return err }); err != nil {
		return 0, err
	}
	holds := map[string]bool{}
	for _, s := range subs {
		holds[s.FeedURL] = true
	}
	for _, r := range recs {
		switch r.Kind {
		case reef.KindSubscribeFeed:
			chk.checkSubscribe(user, r.FeedURL)
			if chk.held[user] == nil {
				chk.held[user] = map[string]bool{}
			}
			chk.held[user][r.FeedURL] = true
			if tr != nil {
				tr.subscribed(r.FeedURL)
			}
		case reef.KindUnsubscribeFeed:
			if !holds[r.FeedURL] {
				chk.errs.addf("%s: unsubscribe recommendation for %s, not held", user, r.FeedURL)
			}
		}
		if err := d.AcceptRecommendation(ctx, user, r.ID); err != nil {
			return 0, fmt.Errorf("accept %s: %w", r.ID, err)
		}
	}
	return len(recs), nil
}

func attentionRound(ctx context.Context, in *attentionInput, dir string, res *results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	trc := makeTrace(in.seed)
	web := trc.web
	errs := &errList{}
	chk := &attentionChecker{web: web, clicked: map[string]map[string]bool{},
		published: map[string]map[string]bool{}, held: map[string]map[string]bool{}, errs: errs}
	untimed := func(call func(context.Context) error) error { return call(ctx) }

	// Set-up: open the data directory and preload the users' first week
	// of attention history through the public API, with its nightly
	// pipeline rounds, then serve.
	t0 := time.Now()
	spec := nodeSpec{id: "ap0", opts: attentionOpts(web, dir)}
	dep, err := reef.NewCentralized(spec.opts...)
	if err != nil {
		return err
	}
	for day := 0; day < apPreloadDays; day++ {
		for _, d := range trc.days[day] {
			chk.clickedAll(d)
			if _, err := dep.IngestClicks(ctx, toClicks(d)); err != nil {
				_ = dep.Close()
				return fmt.Errorf("preload clicks: %w", err)
			}
		}
		now := apStart.Add(time.Duration(day+1) * 24 * time.Hour)
		dep.RunPipeline(now)
		for _, user := range trc.users {
			if _, err := acceptAll(ctx, dep, chk, user, untimed); err != nil {
				_ = dep.Close()
				return err
			}
		}
		web.AdvanceTo(now)
		chk.recordPublished()
		dep.PollFeeds(ctx, now)
	}
	n, err := serveNode(spec, dep)
	if err != nil {
		return err
	}
	defer func() { n.close() }()
	calls := reefclient.New(n.url, reefclient.WithHTTPClient(oneConnClient()))
	defer calls.Close()
	for i, user := range trc.users[:apDigestUsers] {
		var opts []reef.SubscribeOption
		if i == 0 {
			opts = append(opts, reef.WithGuarantee(reef.AtLeastOnce), reef.WithAckTimeout(time.Minute), reef.WithMaxAttempts(1000))
		}
		if _, err := calls.Subscribe(ctx, user, digestFeed, opts...); err != nil {
			return fmt.Errorf("digest subscription: %w", err)
		}
		if chk.held[user] == nil {
			chk.held[user] = map[string]bool{}
		}
		chk.held[user][digestFeed] = true
	}
	// Every digest event the flow publishes carries the same item.
	chk.published[digestFeed] = map[string]bool{feedAttrs(digestFeed)["link"]: true}
	res.setupS = append(res.setupS, time.Since(t0).Seconds())
	settle()

	mon := startMonitor(n)
	defer mon.stop()

	// The REST data plane: user00's reliable digest, consumed with the
	// server-side long-poll on a second connection. Its phases run in
	// slices, one after each simulated night.
	cons := &restPlane{base: n.url, hc: oneConnClient()}
	cons.cl = reefclient.New(n.url, reefclient.WithHTTPClient(cons.hc))
	defer cons.cl.Close()
	f := newFlow(&in.flow, calls, []relSub{{user: trc.users[0], id: digestFeed, feed: digestFeed}}, apWindow)
	f.startConsumers(cons)
	defer f.stopConsumers()

	// The measured trace: clicks go up over REST, the pipeline runs
	// each night, recommendations are fetched and accepted over REST,
	// feeds are polled and the sidebars checked.
	timed := func(call func(context.Context) error) error { return timedCall(ctx, &res.callUs, nil, call) }
	var busy busyCost
	clicks := 0
	for day := apPreloadDays; day < apDays; day++ {
		res.startSlice()
		meter := startBusy()
		start := time.Now()
		before := clicks
		for _, d := range trc.days[day] {
			chk.clickedAll(d)
			batch := toClicks(d)
			got, err := calls.IngestClicks(ctx, batch)
			if err != nil {
				return fmt.Errorf("upload clicks: %w", err)
			}
			if got != len(batch) {
				errs.addf("%s: %d of %d clicks ingested", d.User, got, len(batch))
			}
			clicks += len(batch)
		}
		now := apStart.Add(time.Duration(day+1) * 24 * time.Hour)
		tr.pipeline(func() reef.PipelineStats { return dep.RunPipeline(now) })
		for _, user := range trc.users {
			if _, err := acceptAll(ctx, calls, chk, user, timed); err != nil {
				return err
			}
		}
		web.AdvanceTo(now)
		chk.recordPublished()
		tr.poll(func() (int, int) { return dep.PollFeeds(ctx, now) })
		for _, user := range trc.users {
			chk.checkSidebar(user, dep.Sidebar(user))
		}
		res.clicks.add(clicks-before, time.Since(start))
		busy.add(meter.stop())

		c := day - apPreloadDays
		open := f.openLoop(chunk(in.flow.open, c, apNights), apOpenRate)
		res.publishUs = append(res.publishUs, open.publishUs...)
		res.lateUs = append(res.lateUs, open.lateUs...)
		closed := f.closedLoop(chunk(in.flow.closed, c, apNights), 1)
		res.sustained.add(closed.events, closed.elapsed)
		res.attempted += int64(open.events + closed.events)
		f.takeSamples(res, false)
		res.endSlice()
	}
	res.addBusy(busy, clicks)
	res.heapMB = append(res.heapMB, heapLiveMB())
	res.attempted += int64(clicks)

	f.stopConsumers()
	if err := f.settleAcks(ctx, cons); err != nil {
		return err
	}
	res.failed += int64(f.lost())
	f.checkDrops(brokerDropped(n))
	f.account(res)
	// Close and reopen on the data directory: subscriptions and pending
	// recommendations must read the same through the public API.
	before, err := userState(ctx, dep, trc.users)
	if err != nil {
		return err
	}
	mon.stop()
	n.close()
	for i := 0; i < apReopens; i++ {
		t1 := time.Now()
		dep2, err := reef.NewCentralized(spec.opts...)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		res.recoverS = append(res.recoverS, time.Since(t1).Seconds())
		after, err := userState(ctx, dep2, trc.users)
		if tr != nil {
			tr.replayed(dir, time.Since(t1))
			if i == apReopens-1 {
				// Its snapshot compacts the journal the next reopen
				// would replay.
				tr.nodeDone(&node{dep: dep2})
			}
		}
		_ = dep2.Close()
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(before, after) {
			for u := range before {
				if !reflect.DeepEqual(before[u], after[u]) {
					fmt.Fprintf(os.Stderr, "DIFF %s\n%+v\n%+v\n", u, before[u], after[u])
				}
			}
			errs.addf("subscriptions or pending recommendations differ after reopen %d", i+1)
		}
	}
	if err := f.errs.err(); err != nil {
		return err
	}
	return errs.err()
}

// userState is what a user sees through the public API: live
// subscriptions and pending recommendations.
type userView struct {
	Subs []reef.Subscription
	Recs []reef.Recommendation
}

func userState(ctx context.Context, d reef.Deployment, users []string) (map[string]userView, error) {
	out := map[string]userView{}
	for _, u := range users {
		subs, err := d.Subscriptions(ctx, u)
		if err != nil {
			return nil, err
		}
		recs, err := d.Recommendations(ctx, u)
		if err != nil {
			return nil, err
		}
		for i := range subs {
			subs[i].Since = subs[i].Since.UTC()
		}
		for i := range recs {
			recs[i].At = recs[i].At.UTC()
		}
		out[u] = userView{Subs: subs, Recs: recs}
	}
	return out, nil
}
