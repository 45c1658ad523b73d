package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"reef"
	"reef/internal/replication"
	"reef/internal/trace"
	"reef/internal/websim"
	"reef/reefhttp"
	"reef/reefstream"
)

// noWeb is the fetcher of deployments that never crawl.
type noWeb struct{}

func (noWeb) Fetch(string) (*websim.Resource, error) { return nil, websim.ErrNotFound }

// node is one in-process reef node: a Centralized deployment behind a
// REST listener and a reefstream listener, as reefd runs it.
type node struct {
	dep    *reef.Centralized
	api    reef.Deployment // what the node serves: dep, or its traced wrapper
	srv    *http.Server
	ln     net.Listener
	stream *reefstream.Server
	mgr    *replication.Manager
	url    string
	once   sync.Once
}

// nodeSpec says how to open and serve one node.
type nodeSpec struct {
	id   string
	opts []reef.Option
	ln   net.Listener // REST listener; a fresh loopback one when nil
	// repl builds the node's replication manager over its deployment.
	repl func(dep *reef.Centralized) (*replication.Manager, error)
}

// openNode opens the deployment and starts both listeners.
func openNode(spec nodeSpec) (*node, error) {
	dep, err := reef.NewCentralized(spec.opts...)
	if err != nil {
		return nil, fmt.Errorf("open node %s: %w", spec.id, err)
	}
	return serveNode(spec, dep)
}

// serveNode starts the listeners of an opened deployment.
func serveNode(spec nodeSpec, dep *reef.Centralized) (*node, error) {
	n := &node{dep: dep, ln: spec.ln}
	if n.ln == nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = dep.Close()
			return nil, err
		}
		n.ln = ln
	}
	n.url = "http://" + n.ln.Addr().String()
	n.api = dep
	if tr != nil {
		n.api = &tracedDep{Centralized: dep}
	}
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = n.ln.Close()
		_ = dep.Close()
		return nil, err
	}
	if tr != nil {
		sln = &countingListener{Listener: sln}
	}
	n.stream = reefstream.NewServer(sln, n.api, reefstream.WithNode(spec.id))
	ready := reefhttp.NewReadiness()
	ready.SetReady()
	hopts := []reefhttp.HandlerOption{reefhttp.WithReadiness(ready), reefhttp.WithNodeID(spec.id),
		reefhttp.WithStreamAddr(n.stream.Addr().String())}
	if spec.repl != nil {
		mgr, err := spec.repl(dep)
		if err != nil {
			n.close()
			return nil, err
		}
		n.mgr = mgr
		hopts = append(hopts, reefhttp.WithReplication(mgr))
	}
	switch {
	case tr != nil && n.mgr != nil:
		dep.SetReplicationTap(tr.tap(n.mgr.Offer))
	case tr != nil:
		dep.SetReplicationTap(tr.tap(nil))
	case n.mgr != nil:
		dep.SetReplicationTap(n.mgr.Offer)
	}
	n.srv = &http.Server{Handler: reefhttp.NewHandler(n.api, nil, hopts...), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = n.srv.Serve(n.ln) }()
	return n, nil
}

func (n *node) streamAddr() string { return n.stream.Addr().String() }

// stopServing closes both listeners and the replication manager but
// leaves the deployment open.
func (n *node) stopServing() {
	n.once.Do(n.stopOnce)
}

func (n *node) stopOnce() {
	if n.stream != nil {
		_ = n.stream.Close()
	}
	if n.srv != nil {
		_ = n.srv.Close()
	}
	if n.mgr != nil {
		n.mgr.Close()
	}
}

// close stops serving and closes the deployment, flushing its journal.
func (n *node) close() {
	n.stopServing()
	_ = n.dep.Close()
}

// brokerDropped sums the events the nodes' brokers dropped because a
// subscription's queue was full.
func brokerDropped(nodes ...*node) float64 {
	sum := 0.0
	for _, n := range nodes {
		if st, err := n.dep.Stats(context.Background()); err == nil {
			sum += st["broker_dropped"]
		}
	}
	return sum
}

// scrape fetches /v1/metrics as a monitor would and returns its size.
func scrape(ctx context.Context, hc *http.Client, baseURL string) (int, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	if tr != nil {
		req.Header.Set(trace.Header, trace.NewID().String())
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	n, err := drain(resp)
	return n, time.Since(t0), err
}
