package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"advdiag"
)

// stackSpec is the serving configuration of one workload: labserve's
// defaults (2 shards × 1 worker, LeastLoadedRouter) with the queue depth
// the workload needs.
type stackSpec struct {
	targets []string
	depth   int
	// http puts a Server and a loopback HTTP listener in front of the
	// fleet; without it the fleet is driven in process.
	http bool
}

const (
	fleetShards  = 2
	shardWorkers = 1
	// platformSeed is labserve's default platform noise seed. It is part
	// of the served system's configuration, not of the workload: the
	// workload seed only changes the traffic.
	platformSeed = 1
)

// hooks is the switch the benchmark's wrappers read: a nil tracer makes
// each wrapper a plain pass-through call.
type hooks struct{ tr atomic.Pointer[tracer] }

func (h *hooks) tracer() *tracer { return h.tr.Load() }

// tracedRouter wraps LeastLoadedRouter and times every Route call; the
// sample ID is the trace ID.
type tracedRouter struct {
	inner  advdiag.Router
	parent string
	hooks  *hooks
}

func (r *tracedRouter) Route(s advdiag.Sample, shards []advdiag.ShardInfo) (int, error) {
	t := r.hooks.tracer()
	if t == nil {
		return r.inner.Route(s, shards)
	}
	start := time.Now()
	idx, err := r.inner.Route(s, shards)
	t.record(s.ID, "fleet.route", r.parent, start, time.Now())
	return idx, err
}

// traceKey carries an operation's trace ID in the client call's
// context; the transport wrapper forwards it to the server wrapper in
// traceHeader.
type traceKey struct{}

const traceHeader = "X-Servebench-Trace"

// tracedTransport times each HTTP round trip (request written until
// response headers read) and tags the request with its trace ID.
type tracedTransport struct {
	inner http.RoundTripper
	hooks *hooks
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tt.hooks.tracer()
	id, _ := req.Context().Value(traceKey{}).(string)
	if t == nil || id == "" {
		return tt.inner.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(traceHeader, id)
	start := time.Now()
	resp, err := tt.inner.RoundTrip(req)
	t.record(id, "http", "client", start, time.Now())
	return resp, err
}

// tracedHandler times Server.ServeHTTP for each tagged request.
type tracedHandler struct {
	inner http.Handler
	hooks *hooks
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := th.hooks.tracer()
	id := r.Header.Get(traceHeader)
	if t == nil || id == "" {
		th.inner.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	th.inner.ServeHTTP(w, r)
	t.record(id, "server", "http", start, time.Now())
}

// setupTimes splits one stack set-up into its phases.
type setupTimes struct {
	design time.Duration // DesignPlatform
	warm   time.Duration // NewFleet, which warms the calibration cache
	ready  time.Duration // NewServer until the first 200 from /healthz
}

func (s setupTimes) total() time.Duration { return s.design + s.warm + s.ready }

// stack is one running serving stack.
type stack struct {
	platform  *advdiag.Platform
	fleet     *advdiag.Fleet
	server    *advdiag.Server
	httpSrv   *http.Server
	serveDone chan struct{}
	transport *http.Transport
	client    *advdiag.Client
	hooks     *hooks
	setup     setupTimes
}

// startStack designs the platform, builds the fleet and, for HTTP
// workloads, serves it on a loopback port and waits for /healthz. The
// returned setup times cover exactly that path.
func startStack(spec stackSpec, routeParent string) (*stack, error) {
	st := &stack{hooks: &hooks{}}
	t0 := time.Now()
	p, err := advdiag.DesignPlatform(spec.targets, advdiag.WithPlatformSeed(platformSeed))
	if err != nil {
		return nil, fmt.Errorf("design %v: %w", spec.targets, err)
	}
	t1 := time.Now()
	plats := make([]*advdiag.Platform, fleetShards)
	for i := range plats {
		plats[i] = p
	}
	fleet, err := advdiag.NewFleet(plats,
		advdiag.WithFleetRouter(&tracedRouter{inner: advdiag.LeastLoadedRouter{}, parent: routeParent, hooks: st.hooks}),
		advdiag.WithFleetWorkers(shardWorkers),
		advdiag.WithFleetQueueDepth(spec.depth),
	)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	t2 := time.Now()
	st.platform, st.fleet = p, fleet
	if !spec.http {
		st.setup = setupTimes{design: t1.Sub(t0), warm: t2.Sub(t1)}
		return st, nil
	}

	if st.server, err = advdiag.NewServer(fleet); err != nil {
		fleet.Close() //nolint:errcheck // set-up bail-out; the NewServer error is the one to report
		return nil, fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.server.Close() //nolint:errcheck // set-up bail-out
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.httpSrv = &http.Server{Handler: &tracedHandler{inner: st.server, hooks: st.hooks}, ReadHeaderTimeout: 10 * time.Second}
	st.serveDone = make(chan struct{})
	go func() {
		defer close(st.serveDone)
		st.httpSrv.Serve(ln) //nolint:errcheck // always ErrServerClosed, from close
	}()
	// At most one connection per CPU, as a deployed client pool would be
	// sized on this host.
	conns := runtime.GOMAXPROCS(0)
	st.transport = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	st.client = advdiag.NewClient("http://"+ln.Addr().String(),
		advdiag.WithHTTPClient(&http.Client{Transport: &tracedTransport{inner: st.transport, hooks: st.hooks}}))
	if err := waitHealthy(st.client); err != nil {
		st.close() //nolint:errcheck // set-up bail-out
		return nil, err
	}
	st.setup = setupTimes{design: t1.Sub(t0), warm: t2.Sub(t1), ready: time.Since(t2)}
	return st, nil
}

func waitHealthy(c *advdiag.Client) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		err := c.Health(ctx)
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("healthz never answered 200: %w", err)
		case <-time.After(time.Millisecond):
		}
	}
}

// close stops the listener, the server and the fleet, and waits for
// their goroutines.
func (st *stack) close() error {
	if st.httpSrv != nil {
		st.httpSrv.Close() //nolint:errcheck // the listener error is uninteresting at teardown
		<-st.serveDone
		st.transport.CloseIdleConnections()
	}
	var err error
	if st.server != nil {
		err = st.server.Close()
	} else {
		err = st.fleet.Close()
	}
	if errors.Is(err, advdiag.ErrFleetClosed) {
		err = nil
	}
	return err
}

// setupSampler times stack set-ups. The set-ups of one run are spread
// over its windows, so the median samples the same host conditions as
// the measured traffic instead of only the run's first moments.
type setupSampler struct {
	spec   stackSpec
	parent string
	want   int // set-ups to time in the whole run
	times  []setupTimes
}

// standUp times the first set-up and returns its stack, which serves
// the workload, with the sampler that times the rest.
func standUp(cfg config, spec stackSpec, routeParent string) (*stack, *setupSampler, error) {
	ss := &setupSampler{spec: spec, parent: routeParent, want: cfg.setups}
	st, err := ss.one()
	return st, ss, err
}

// one times one set-up and returns its running stack.
func (ss *setupSampler) one() (*stack, error) {
	// Each set-up starts from a collected heap, so the previous one's
	// garbage is not charged to it.
	runtime.GC()
	st, err := startStack(ss.spec, ss.parent)
	if err != nil {
		return nil, err
	}
	ss.times = append(ss.times, st.setup)
	return st, nil
}

// take times a share of the remaining set-ups: all of them when left
// is 1, else about 1/left of them. Each stack is torn down again.
func (ss *setupSampler) take(left int) error {
	n := (ss.want - len(ss.times) + left - 1) / max(left, 1)
	for i := 0; i < n; i++ {
		st, err := ss.one()
		if err != nil {
			return err
		}
		if err := st.close(); err != nil {
			return err
		}
	}
	return nil
}

// setupGroups is how many groups median() averages the set-ups in.
const setupGroups = 7

// median is a median of means: the set-ups are dealt round-robin into
// setupGroups groups, each group is averaged phase by phase, and the
// group with the median total is returned. One set-up's time is bimodal
// on this stack (two modes about 40% apart, in runs of either), so a
// plain median jumps from one mode to the other between runs; averaging
// within groups first steadies it, and the median over the groups still
// drops an outlier.
func (ss *setupSampler) median() setupTimes {
	groups := make([]setupTimes, min(setupGroups, len(ss.times)))
	counts := make([]time.Duration, len(groups))
	for i, t := range ss.times {
		g := &groups[i%len(groups)]
		g.design += t.design
		g.warm += t.warm
		g.ready += t.ready
		counts[i%len(groups)]++
	}
	for i := range groups {
		groups[i].design /= counts[i]
		groups[i].warm /= counts[i]
		groups[i].ready /= counts[i]
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].total() < groups[j].total() })
	return groups[len(groups)/2]
}
