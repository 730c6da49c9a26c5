package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"shoggoth/internal/rpc"
	"shoggoth/internal/video"
)

const (
	liveDevices     = 32
	liveBatchFrames = 20
	livePool        = 64 // distinct pre-rendered batches the uploads cycle through

	// Telemetry every upload reports (the livecollab example's values).
	liveAlpha, liveLambda = 0.5, 0.55

	// Headers a traced run uses to tie a server-side handler span to the
	// client span that sent the request.
	headerSpan = "Perfbench-Span"
	headerOp   = "Perfbench-Op"
)

// liveLabel posts pre-rendered 20-frame DETRAC batches to an in-process
// cloud server over loopback TCP, for 32 devices in turn, from one client
// that sends each upload when the previous reply has arrived (a closed loop
// over one connection). Set-up is starting the server plus one registering
// upload per device.
type liveLabel struct {
	tr      *tracer
	batches [][]video.Frame

	srv       *http.Server
	served    chan struct{} // closed when srv.Serve returns
	url       string
	transport *http.Transport
	client    *http.Client     // over transport; a traced run tags each upload instead
	sent      map[string]int64 // frames the cloud acknowledged, per device
	rejected  int
}

func newLiveLabel(seed uint64, tr *tracer) (workload, error) {
	profile, err := video.ProfileByName(video.ProfileDETRAC)
	if err != nil {
		return nil, err
	}
	st := video.NewStream(profile, seed)
	batches := make([][]video.Frame, livePool)
	for b := range batches {
		batches[b] = make([]video.Frame, liveBatchFrames)
		for i := range batches[b] {
			batches[b][i] = *st.Next()
		}
	}
	return &liveLabel{tr: tr, batches: batches}, nil
}

func liveDeviceID(i int) string { return fmt.Sprintf("edge-%02d", i%liveDevices) }

func (l *liveLabel) setup() error {
	profile, err := video.ProfileByName(video.ProfileDETRAC)
	if err != nil {
		return err
	}
	// The shoggoth-cloud defaults: teacher seed 7, one replica, one worker,
	// unbounded queue.
	cloud := rpc.NewServerOpts(profile, 7, rpc.ServerOptions{Workers: 1, Replicas: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = cloud.Handler()
	if l.tr != nil {
		h = l.timed(h)
	}
	l.srv = &http.Server{Handler: h}
	l.served = make(chan struct{})
	go func() {
		defer close(l.served)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	l.url = "http://" + ln.Addr().String()
	l.transport = &http.Transport{MaxConnsPerHost: 1}
	l.client = &http.Client{Transport: l.transport, Timeout: rpc.DefaultTimeout}
	l.sent = make(map[string]int64, liveDevices)

	sp := l.tr.begin("rpc.register", -1, -1)
	defer l.tr.end(sp)
	for d := 0; d < liveDevices; d++ {
		c := &rpc.Client{BaseURL: l.url, DeviceID: liveDeviceID(d), HTTP: l.client}
		batch := l.batches[d%livePool]
		resp, err := c.Label(batch, liveAlpha, liveLambda)
		if err != nil {
			return fmt.Errorf("register %s: %w", c.DeviceID, err)
		}
		if err := checkLabels(len(batch), len(resp.Labels)); err != nil {
			return fmt.Errorf("register %s: %w", c.DeviceID, err)
		}
		l.sent[c.DeviceID] += int64(len(batch))
	}
	return nil
}

// timed wraps the server's handler in a span per traced upload.
func (l *liveLabel) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err1 := strconv.Atoi(r.Header.Get(headerSpan))
		op, err2 := strconv.Atoi(r.Header.Get(headerOp))
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := l.tr.begin("rpc.handler", parent, op)
		h.ServeHTTP(w, r)
		l.tr.end(sp)
	})
}

// spanHeader tags each request with the client span that sent it.
type spanHeader struct {
	base     http.RoundTripper
	span, op int
}

func (s spanHeader) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(headerSpan, strconv.Itoa(s.span))
	r.Header.Set(headerOp, strconv.Itoa(s.op))
	return s.base.RoundTrip(r)
}

// run uploads back to back for d, then checks the cloud's per-device
// frame counts.
func (l *liveLabel) run(d time.Duration) ([]float64, int, error) {
	var lat []float64
	failed := 0
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		ms, err := l.upload(i)
		lat = append(lat, ms)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: live-label upload %d: %v\n", i, err)
			continue
		}
		l.sent[liveDeviceID(i)] += liveBatchFrames
	}
	for d := 0; d < liveDevices; d++ {
		id := liveDeviceID(d)
		st, err := (&rpc.Client{BaseURL: l.url, DeviceID: id, HTTP: l.client}).Status()
		if err == nil {
			err = checkFramesLabeled(st.FramesLabeled, l.sent[id])
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: live-label status %s: %v\n", id, err)
		}
	}
	return lat, failed, nil
}

// upload posts batch i to device i mod 32 and checks the labels.
func (l *liveLabel) upload(i int) (float64, error) {
	batch := l.batches[i%livePool]
	c := &rpc.Client{BaseURL: l.url, DeviceID: liveDeviceID(i), HTTP: l.client}
	start := time.Now()
	sp := l.tr.begin("rpc.client", -1, i)
	if l.tr != nil {
		c.HTTP = &http.Client{Transport: spanHeader{base: l.transport, span: sp, op: i}, Timeout: rpc.DefaultTimeout}
	}
	resp, err := c.Label(batch, liveAlpha, liveLambda)
	l.tr.end(sp)
	ms := msSince(start)
	if err != nil {
		if errors.Is(err, rpc.ErrBackpressure) {
			l.rejected++
		}
		return ms, err
	}
	return ms, checkLabels(len(batch), len(resp.Labels))
}

func (l *liveLabel) layers(ops int) map[string]float64 {
	n := float64(ops)
	client, handler := l.tr.total("rpc.client"), l.tr.total("rpc.handler")
	return map[string]float64{
		"rpc.handler_ms":    handler / n,
		"rpc.client_ms":     client / n,
		"rpc.client_p90_ms": quantile(l.tr.durations("rpc.client"), 0.9),
		"rpc.wire_ms":       (client - handler) / n,
		"rpc.rejected":      float64(l.rejected),
		"rpc.register_ms":   median(l.tr.durations("rpc.register")),
	}
}

func (l *liveLabel) close() {
	if l.srv == nil {
		return
	}
	_ = l.srv.Close() // every upload has returned; nothing is in flight
	<-l.served
	l.transport.CloseIdleConnections()
	l.srv = nil
}
