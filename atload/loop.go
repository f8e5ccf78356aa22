package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// response is what the driver reads out of a reply body: the fields of
// service.Result and catalog.Info it checks or reports.
type response struct {
	Rows    int   `json:"rows"`
	Cols    int   `json:"cols"`
	NNZ     int64 `json:"nnz"`
	Bytes   int64 `json:"bytes"`
	WallNS  int64 `json:"wall_ns"`
	QueueNS int64 `json:"queue_ns"`
}

// outcome is one completed request as the client saw it.
type outcome struct {
	MS       float64 // send → body fully read
	Resp     response
	Failure  string // empty when the reply was 2xx and matched the reference
	Wrong    bool   // the failure is a 2xx reply that differs from the reference
	Rejected bool   // 429 or 503
}

// newRequest builds the HTTP request of one step.
func (s *server) newRequest(st *step) (*http.Request, error) {
	switch st.Op {
	case opMultiply:
		body, err := json.Marshal(map[string]string{"a": st.A, "b": st.B, "store": st.Store})
		if err != nil {
			return nil, err
		}
		return jsonPost(s.base+"/v1/multiply", body)
	case opEval:
		body, err := json.Marshal(map[string]string{"expr": st.Expr})
		if err != nil {
			return nil, err
		}
		return jsonPost(s.base+"/v1/eval", body)
	case opPut:
		return s.putRequest(st.Put)
	default:
		return http.NewRequest(http.MethodDelete, s.base+"/v1/matrices/"+url.PathEscape(st.Name), nil)
	}
}

func jsonPost(u string, body []byte) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

func (s *server) putRequest(op *operand) (*http.Request, error) {
	q := url.Values{"name": {op.Name}, "format": {op.Format}}
	req, err := http.NewRequest(http.MethodPut, s.base+"/v1/matrices?"+q.Encode(), bytes.NewReader(op.Payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	return req, nil
}

// do sends one step's request over the single connection, reads the whole
// body, and checks the reply against the step's reference.
func (s *server) do(st *step) outcome {
	req, err := s.newRequest(st)
	if err != nil {
		return outcome{Failure: err.Error()}
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return outcome{Failure: "transport: " + err.Error()}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o := outcome{MS: float64(time.Since(t0).Nanoseconds()) / 1e6}
	if err != nil {
		o.Failure = "reading body: " + err.Error()
		return o
	}
	o.Rejected = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		o.Failure = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return o
	}
	if st.Op == opDelete {
		return o
	}
	if err := json.Unmarshal(body, &o.Resp); err != nil {
		o.Failure = "decoding reply: " + err.Error()
		return o
	}
	if r, w := o.Resp, st.Want; r.Rows != w.Rows || r.Cols != w.Cols || r.NNZ != w.NNZ {
		o.Failure = fmt.Sprintf("wrong answer: got %dx%d nnz %d, reference %dx%d nnz %d", r.Rows, r.Cols, r.NNZ, w.Rows, w.Cols, w.NNZ)
		o.Wrong = true
	}
	return o
}

// upload loads the workload's set-up operands.
func (s *server) upload(w *workload) error {
	for _, op := range w.Operands {
		o := s.do(&step{Op: opPut, Put: op, Want: refOf(op.M)})
		if o.Failure != "" {
			return fmt.Errorf("uploading %s: %s", op.Name, o.Failure)
		}
	}
	return nil
}

// ping is the median round trip in milliseconds of n GET /readyz requests:
// the HTTP stack's fixed cost with no work behind it.
func (s *server) ping(n int) (float64, error) {
	var ms []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := s.client.Get(s.base + "/readyz")
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ms), nil
}

// loopResult holds the samples of one closed-loop window.
type loopResult struct {
	ByKind    map[string][]outcome
	CycleMS   []float64
	Attempted int
	Failed    int
	Rejected  int
	Failures  []string  // first few failure messages
	CPUSec    float64   // server utime+stime over the window
	Host      []float64 // host-speed samples taken between cycles (slowdown factors)
}

// runLoop repeats the cycle, one request at a time over one connection, until
// the duration has passed; the cycle in flight at the deadline completes and
// counts. rec, when non-nil, records one client-side span per request; ref,
// when non-nil, is sampled between cycles, while the server is idle.
func (s *server) runLoop(w *workload, d time.Duration, rec *Recorder, ref *hostRef) (*loopResult, error) {
	res := &loopResult{ByKind: map[string][]outcome{}}
	cpu0, err := s.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var sampled time.Time
	for done := false; !done; {
		if ref != nil && time.Since(sampled) >= refEvery {
			res.Host = append(res.Host, ref.sample())
			sampled = time.Now()
		}
		c0 := time.Now()
		for i := range w.Cycle {
			st := &w.Cycle[i]
			span := 0
			if rec != nil {
				span = rec.Begin(levelHTTP, st.Kind, "request", rec.NextReq())
			}
			o := s.do(st)
			if rec != nil {
				rec.End(span)
			}
			res.Attempted++
			if o.Rejected {
				res.Rejected++
			}
			if o.Failure != "" {
				res.Failed++
				if len(res.Failures) < 5 {
					res.Failures = append(res.Failures, st.Kind+": "+o.Failure)
				}
			}
			res.ByKind[st.Kind] = append(res.ByKind[st.Kind], o)
		}
		res.CycleMS = append(res.CycleMS, float64(time.Since(c0).Nanoseconds())/1e6)
		done = time.Since(start) >= d
	}
	cpu1, err := s.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res.CPUSec = cpu1 - cpu0
	return res, nil
}

// latencies returns the client-seen latencies of one kind's good replies.
func (r *loopResult) latencies(kind string) []float64 {
	var out []float64
	for _, o := range r.ByKind[kind] {
		if o.Failure == "" {
			out = append(out, o.MS)
		}
	}
	return out
}

// serverMS returns the server's own figure for one kind's good replies: the
// reply's queue_ns + wall_ns.
func (r *loopResult) serverMS(kind string) []float64 {
	var out []float64
	for _, o := range r.ByKind[kind] {
		if o.Failure == "" {
			out = append(out, float64(o.Resp.QueueNS+o.Resp.WallNS)/1e6)
		}
	}
	return out
}

// latencyP50 is the geometric mean over kinds of each kind's median latency:
// per-kind medians keep the statistic inside one mode, and the geomean
// weights a 2 ms R7 and a 250 ms G9 equally.
func (r *loopResult) latencyP50(kinds []string) float64 {
	var meds []float64
	for _, k := range kinds {
		meds = append(meds, median(r.latencies(k)))
	}
	return geomean(meds)
}

// minSamples is the smallest per-kind sample count.
func (r *loopResult) minSamples(kinds []string) int {
	min := -1
	for _, k := range kinds {
		if n := len(r.latencies(k)); min < 0 || n < min {
			min = n
		}
	}
	return min
}

// bytesPerNNZ is the geomean over multiply/eval kinds of reply bytes/nnz —
// exact, the memory cost of the result representation (Fig. 8c).
func (r *loopResult) bytesPerNNZ(w *workload) float64 {
	var ratios []float64
	for _, st := range w.kindSteps() {
		if !st.hasResult() {
			continue
		}
		for _, o := range r.ByKind[st.Kind] {
			if o.Failure == "" && o.Resp.NNZ > 0 {
				ratios = append(ratios, float64(o.Resp.Bytes)/float64(o.Resp.NNZ))
				break
			}
		}
	}
	return geomean(ratios)
}
