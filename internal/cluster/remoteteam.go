package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"atmatrix/internal/core"
	"atmatrix/internal/faultinject"
)

// RemoteTeam is the cluster-level analog of a sched.Team: where a socket
// team executes the tile-row pairs homed on its socket, a RemoteTeam
// executes the shard tasks homed on its worker node. It owns the worker's
// address, its health state and the RPC mechanics — deadlines are applied
// per call by the coordinator, transport failures feed the health state
// machine the same way missed heartbeats do.
type RemoteTeam struct {
	addr   string // base URL, e.g. "http://127.0.0.1:9001"
	hc     *http.Client
	health health
}

// newRemoteTeam normalizes the worker address into a base URL.
func newRemoteTeam(addr string, hc *http.Client) *RemoteTeam {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &RemoteTeam{addr: strings.TrimRight(addr, "/"), hc: hc}
}

// Addr returns the worker's base URL.
func (rt *RemoteTeam) Addr() string { return rt.addr }

// State returns the worker's current health state.
func (rt *RemoteTeam) State() State {
	s, _ := rt.health.current()
	return s
}

// transportError is a connection-level RPC failure: refused, reset, timed
// out — the worker may be gone. Always transient (a retry or another
// worker can succeed), always a health miss. It deliberately does not
// unwrap: a per-RPC deadline surfaces as context.DeadlineExceeded
// underneath, and exposing that would make the service layer misclassify
// a retryable worker timeout as the job's own deadline.
type transportError struct {
	addr string
	err  error
}

func (e *transportError) Error() string {
	return fmt.Sprintf("cluster: rpc to %s: %v", e.addr, e.err)
}

// Transient marks transport failures retryable, the PR 3 classifier
// convention.
func (e *transportError) Transient() bool { return true }

// remoteError is an HTTP-level failure: the worker answered, so it is
// alive, but it rejected or failed the request.
type remoteError struct {
	addr      string
	status    int
	msg       string
	transient bool
}

func (e *remoteError) Error() string {
	return fmt.Sprintf("cluster: worker %s: http %d: %s", e.addr, e.status, e.msg)
}

func (e *remoteError) Transient() bool { return e.transient }

// missingShardsError is a worker's 409 answer to an exec whose references
// its store cannot satisfy: not a failure of the worker or the data, but
// the protocol's cache-miss signal. The coordinator uploads the missing
// shards to that worker and re-sends the same exec.
type missingShardsError struct {
	addr string
	keys []ShardKey
}

func (e *missingShardsError) Error() string {
	return fmt.Sprintf("cluster: worker %s missing %d referenced shards", e.addr, len(e.keys))
}

// call performs one RPC under the caller's deadline and returns the 200
// response, whose body the caller closes; a transport failure or a non-200
// answer comes back as the matching typed error.
func (rt *RemoteTeam) call(ctx context.Context, method, path, contentType string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rt.addr+path, rd)
	if err != nil {
		return nil, fmt.Errorf("cluster: building %s %s: %w", method, path, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return nil, &transportError{addr: rt.addr, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeFailure(rt.addr, resp)
	}
	return resp, nil
}

// drain discards a short acknowledgement body so the connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
}

// exec sends one shard task — references only, never operand bytes — to
// the worker and streams the partial product back through onFrame, one
// per-tile-row frame at a time; acquire gates each frame's bytes against
// the coordinator's bounded merge window before they are read off the
// socket. The four rpc.* fault sites cover the failure matrix: rpc.send
// fails the request before it leaves, rpc.conn fails the transport,
// rpc.recv fails the response path, rpc.stream fails (or corrupts, via its
// error kind) an individual frame.
func (rt *RemoteTeam) exec(ctx context.Context, hdr execHeader, acquire func(n int) (func(), error), onFrame func(*core.ATMatrix) error) (int64, error) {
	if err := faultinject.Do("rpc.send"); err != nil {
		return 0, fmt.Errorf("cluster: sending exec to %s: %w", rt.addr, err)
	}
	body, err := encodeExecHeader(hdr)
	if err != nil {
		return 0, err
	}
	if err := faultinject.Do("rpc.conn"); err != nil {
		return 0, &transportError{addr: rt.addr, err: err}
	}
	resp, err := rt.call(ctx, http.MethodPost, "/cluster/v1/exec", "application/json", body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := faultinject.Do("rpc.recv"); err != nil {
		return 0, fmt.Errorf("cluster: receiving product from %s: %w", rt.addr, err)
	}
	err = core.ReadTileRowFrames(resp.Body, acquire, func(m *core.ATMatrix) error {
		if err := faultinject.Do("rpc.stream"); err != nil {
			return err
		}
		return onFrame(m)
	})
	if err != nil {
		// A frame that failed its CRC or structure checks in flight keeps
		// its typed core error (ErrChecksum / TileError with the damaged
		// tile's coordinate) for the quarantine path.
		return 0, fmt.Errorf("cluster: streaming product from %s: %w", rt.addr, err)
	}
	contribs, _ := strconv.ParseInt(resp.Header.Get("X-Atm-Contributions"), 10, 64)
	return contribs, nil
}

// shipShard uploads one shard to the worker's store.
func (rt *RemoteTeam) shipShard(ctx context.Context, key ShardKey, crc uint32, data []byte) error {
	path := fmt.Sprintf("/cluster/v1/shards?name=%s&gen=%d&shard=%d&crc=%08x",
		url.QueryEscape(key.Name), key.Gen, key.Shard, crc)
	resp, err := rt.call(ctx, http.MethodPost, path, "application/octet-stream", data)
	if err != nil {
		return err
	}
	drain(resp)
	return nil
}

// inventory fetches the worker's CRC-verified shard holdings.
func (rt *RemoteTeam) inventory(ctx context.Context) ([]inventoryEntry, error) {
	resp, err := rt.call(ctx, http.MethodGet, "/cluster/v1/shards", "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Shards []inventoryEntry `json:"shards"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxOperandBytes)).Decode(&body); err != nil {
		return nil, fmt.Errorf("cluster: decoding inventory from %s: %w", rt.addr, err)
	}
	return body.Shards, nil
}

// dropShards removes shards from the worker's store, by matrix name
// and/or explicit keys.
func (rt *RemoteTeam) dropShards(ctx context.Context, name string, keys []ShardKey) error {
	payload, err := json.Marshal(struct {
		Name string     `json:"name,omitempty"`
		Keys []ShardKey `json:"keys,omitempty"`
	}{Name: name, Keys: keys})
	if err != nil {
		return fmt.Errorf("cluster: encoding drop request: %w", err)
	}
	resp, err := rt.call(ctx, http.MethodPost, "/cluster/v1/shards/drop", "application/json", payload)
	if err != nil {
		return err
	}
	drain(resp)
	return nil
}

// decodeFailure maps a non-200 worker response to a typed error.
func decodeFailure(addr string, resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var f rpcFailure
	if err := json.Unmarshal(raw, &f); err != nil || f.Error == "" {
		f.Error = strings.TrimSpace(string(raw))
	}
	if resp.StatusCode == http.StatusConflict && len(f.MissingShards) > 0 {
		return &missingShardsError{addr: addr, keys: f.MissingShards}
	}
	if f.Corrupt {
		// The worker's store rejected the shard stream we uploaded: the
		// transfer (or the coordinator's copy) is damaged. Surface the
		// checksum sentinel so exhausted re-sends quarantine the operand
		// combination instead of looping.
		return fmt.Errorf("cluster: worker %s rejected shard: %s: %w", addr, f.Error, core.ErrChecksum)
	}
	transient := f.Transient ||
		resp.StatusCode == http.StatusServiceUnavailable ||
		resp.StatusCode == http.StatusTooManyRequests
	return &remoteError{addr: addr, status: resp.StatusCode, msg: f.Error, transient: transient}
}

// heartbeat probes the worker's health endpoint.
func (rt *RemoteTeam) heartbeat(ctx context.Context) bool {
	resp, err := rt.call(ctx, http.MethodGet, "/cluster/v1/health", "", nil)
	if err != nil {
		return false
	}
	drain(resp)
	return true
}

// isTransient applies the PR 3 transient/permanent classification: any
// error in the chain implementing the Transient() marker opts in.
func isTransient(err error) bool {
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
}

// isCorrupt reports whether an error chain carries stream-corruption
// evidence: the checksum/magic sentinels or a typed per-tile decode error.
func isCorrupt(err error) bool {
	var te *core.TileError
	return errors.Is(err, core.ErrChecksum) || errors.Is(err, core.ErrBadMagic) || errors.As(err, &te)
}
