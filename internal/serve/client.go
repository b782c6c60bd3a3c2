package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client is the node's HTTP contract as Go calls: every path, query word,
// header and content type a peer sends a node is spelled in this file, and
// nowhere else outside the handlers that answer them. The load generator,
// the replica chain and the cluster router all talk to a node through it.
// It is a value: build one wherever an *http.Client and a base URL meet.
type Client struct {
	HTTP *http.Client
	Base string // node base URL, e.g. "http://localhost:8077"
}

// nodeTimeout bounds one exchange between peers — dial, headers, and the
// whole body — so a hung node costs its caller this long and no more.
const nodeTimeout = 5 * time.Second

// minIdlePerNode is the idle-connection floor per node, for a router
// that learns the shard count from its nodes only after it has a client.
const minIdlePerNode = 32

// NewNodeHTTPClient returns the *http.Client that node-to-node traffic
// rides: a router's forwards and control calls, a primary's replica
// stream. Every request is bounded by nodeTimeout, and the transport
// keeps at least one idle connection per shard to each node: a node has
// one replicator per hosted shard shipping to the same follower, and with
// fewer idle slots than concurrent requests (net/http keeps two per host)
// most requests dial a connection and drop it again.
func NewNodeHTTPClient(shards int) *http.Client {
	return &http.Client{
		Timeout: nodeTimeout,
		Transport: &http.Transport{
			Proxy:                 http.ProxyFromEnvironment,
			DialContext:           (&net.Dialer{Timeout: nodeTimeout}).DialContext,
			TLSHandshakeTimeout:   nodeTimeout,
			ResponseHeaderTimeout: nodeTimeout,
			MaxIdleConnsPerHost:   max(shards, minIdlePerNode),
			IdleConnTimeout:       90 * time.Second,
		},
	}
}

// Reply caps. A peer's reply is never read past them, so what a call can
// allocate is bounded here and not by what the peer chooses to send.
const (
	// maxFrameReply bounds data-plane replies — ingest results (either
	// codec) and snapshot ship frames. It equals the router's request cap,
	// already above what a node's install will accept.
	maxFrameReply = 8 << 20
	// maxControlReply bounds every other reply (stats, shard lists, acks).
	maxControlReply = 1 << 20
)

// ErrReplyTooLarge reports a reply that ran past its cap.
var ErrReplyTooLarge = errors.New("serve: client: reply exceeds size cap")

// ErrEpochConflict matches (errors.Is) a node's 409 to a request stamped
// with a map epoch other than its own; the node's epoch is in the message.
var ErrEpochConflict = errors.New("serve: client: map epoch conflict")

// StatusError is a reply whose status the call does not accept.
type StatusError struct {
	Op     string // "METHOD url"
	Status int
	Msg    string // at most 512 bytes of the reply body
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: client: %s: status %d: %s", e.Op, e.Status, e.Msg)
}

// do's special arguments.
const (
	streamReply = -1 // limit: leave the reply body open for the caller
	anyStatus   = -1 // also: every status is a reply, none an error
)

// do sends one request and settles the reply by the one convention every
// node endpoint follows. A status other than 200 or also is a *StatusError
// carrying at most 512 bytes of the body. An accepted reply is read once,
// to at most limit bytes — ErrReplyTooLarge past that — so the keep-alive
// connection is reused. Zero contentType and epoch send no such header.
func (c Client) do(ctx context.Context, method, target, contentType string, epoch uint64, body []byte, limit int64, also int) (*http.Response, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+target, rd)
	if err != nil {
		return nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if epoch != 0 {
		req.Header.Set(EpochHeader, strconv.FormatUint(epoch, 10))
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, nil, err
	}
	if s := resp.StatusCode; s != http.StatusOK && s != also && also != anyStatus {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := error(&StatusError{Op: method + " " + c.Base + target, Status: s, Msg: string(bytes.TrimSpace(msg))})
		// A node echoes its own epoch exactly when it refuses the request's.
		if h := resp.Header.Get(EpochHeader); h != "" && s == http.StatusConflict {
			err = fmt.Errorf("%w: node is at epoch %s: %w", ErrEpochConflict, h, err)
		}
		return nil, nil, err
	}
	if limit == streamReply {
		return resp, nil, nil
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(len(reply)) > limit {
		err = fmt.Errorf("%w: %s %s: more than %d bytes", ErrReplyTooLarge, method, c.Base+target, limit)
	}
	return resp, reply, err
}

// getJSON GETs a control endpoint and decodes its JSON reply into v.
func (c Client) getJSON(target string, v any) error {
	_, reply, err := c.do(context.Background(), http.MethodGet, target, "", 0, nil, maxControlReply, 0)
	if err != nil {
		return err
	}
	return json.Unmarshal(reply, v)
}

// Stats fetches GET /stats.
func (c Client) Stats() (*StatsResponse, error) {
	var st StatsResponse
	if err := c.getJSON("/stats", &st); err != nil {
		return nil, err
	}
	if st.Shards <= 0 {
		return nil, fmt.Errorf("serve: client: %s/stats reported %d shards", c.Base, st.Shards)
	}
	return &st, nil
}

// Shards fetches GET /admin/shards: the shards the node hosts, with roles.
func (c Client) Shards() ([]AdminShardInfo, error) {
	var infos []AdminShardInfo
	err := c.getJSON("/admin/shards", &infos)
	return infos, err
}

// Healthy reports whether GET /healthz answers 200.
func (c Client) Healthy() bool {
	_, _, err := c.do(context.Background(), http.MethodGet, "/healthz", "", 0, nil, maxControlReply, 0)
	return err == nil
}

// Get relays a read-only request (the router's query proxy): target is
// path?query, and whatever the node answers — any status — comes back as
// it was sent.
func (c Client) Get(target string) (status int, contentType string, body []byte, err error) {
	resp, body, err := c.do(context.Background(), http.MethodGet, target, "", 0, nil, maxControlReply, anyStatus)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body, nil
}

// IngestJSON posts one JSON batch to /ingest. A 429 (every sub-batch
// rejected) is a reply like a 200: the per-reading results say what to
// re-send.
func (c Client) IngestJSON(req IngestRequest) (*IngestResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	_, reply, err := c.do(context.Background(), http.MethodPost, "/ingest", "application/json", 0, body, maxFrameReply, http.StatusTooManyRequests)
	if err != nil {
		return nil, err
	}
	var out IngestResponse
	if err := json.Unmarshal(reply, &out); err != nil {
		return nil, fmt.Errorf("serve: client: bad ingest reply: %w", err)
	}
	return &out, nil
}

// IngestFrame is the ODWP round: post a pre-encoded ODWB frame to /ingest
// and decode the ODWR reply into out, reusing its Results slice. A
// non-zero epoch stamps the request with the sender's map epoch; a node on
// another epoch refuses it with an error matching ErrEpochConflict. 429 is
// a reply, as for IngestJSON.
func (c Client) IngestFrame(frame []byte, epoch uint64, out *IngestResponse) error {
	_, reply, err := c.do(context.Background(), http.MethodPost, "/ingest", ContentTypeBinary, epoch, frame, maxFrameReply, http.StatusTooManyRequests)
	if err != nil {
		return err
	}
	out.Results, out.Rejected, out.RetryAfterMS, err = DecodeResultsInto(reply, out.Results[:0])
	if err != nil {
		return fmt.Errorf("serve: client: bad ingest reply: %w", err)
	}
	return nil
}

// Replicate posts one ODRP frame to a follower's /replicate.
func (c Client) Replicate(frame []byte) error {
	_, _, err := c.do(context.Background(), http.MethodPost, "/replicate", "application/x-odds-repl", 0, frame, maxControlReply, 0)
	return err
}

// Subscribe opens a /subscribe stream, filtered as q says, that lives until
// ctx ends or the node closes it. The stream is always ODWS binary — what
// the reader decodes — whatever q.Binary says; Close it when done.
func (c Client) Subscribe(ctx context.Context, q SubscribeQuery) (*StreamReader, error) {
	target := "/subscribe?format=binary"
	if q.OutlierOnly {
		target += "&only=outlier"
	}
	if len(q.Sensors) > 0 {
		target += "&sensors=" + url.QueryEscape(strings.Join(q.Sensors, ","))
	}
	resp, _, err := c.do(ctx, http.MethodGet, target, "", 0, nil, streamReply, 0)
	if err != nil {
		return nil, err
	}
	return NewStreamReader(resp.Body), nil
}

// Close releases the connection under a stream Client.Subscribe opened.
func (sr *StreamReader) Close() error {
	if c, ok := sr.r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// ShardArgs are the optional parameters of a shard lifecycle op.
type ShardArgs struct {
	Replica bool   // create, install: host the copy as a follower
	Seal    bool   // snapshot: seal the shard first (the migration drain)
	Target  string // follow: follower node base URL ("" detaches)
	Frame   []byte // install: the ODSH ship frame
}

// Shard runs one lifecycle op on POST /admin/shard and returns the reply:
// the ODSH ship frame for ShardSnapshot, the node's JSON ack for the rest.
func (c Client) Shard(op ShardOp, id int, a ShardArgs) ([]byte, error) {
	target := "/admin/shard?op=" + string(op) + "&id=" + strconv.Itoa(id)
	if a.Replica {
		target += "&role=replica"
	}
	if a.Seal {
		target += "&seal=1"
	}
	if a.Target != "" {
		target += "&target=" + url.QueryEscape(a.Target)
	}
	limit := int64(maxControlReply)
	if op == ShardSnapshot {
		limit = maxFrameReply
	}
	_, reply, err := c.do(context.Background(), http.MethodPost, target, "application/octet-stream", 0, a.Frame, limit, 0)
	return reply, err
}

// PushEpoch advances the node's map epoch (POST /admin/epoch). Epochs are
// monotonic on the node, so a stale push is harmless.
func (c Client) PushEpoch(epoch uint64) error {
	_, _, err := c.do(context.Background(), http.MethodPost, "/admin/epoch?epoch="+strconv.FormatUint(epoch, 10), "", 0, nil, maxControlReply, 0)
	return err
}
