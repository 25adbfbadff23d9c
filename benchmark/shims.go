package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"github.com/treads-project/treads/internal/ad"
	"github.com/treads-project/treads/internal/attr"
	"github.com/treads-project/treads/internal/audience"
	"github.com/treads-project/treads/internal/billing"
	"github.com/treads-project/treads/internal/cluster"
	"github.com/treads-project/treads/internal/faults"
	"github.com/treads-project/treads/internal/pixel"
	"github.com/treads-project/treads/internal/platform"
	"github.com/treads-project/treads/internal/profile"
)

// The shims below interpose a span at every seam the program already has.
// Each embeds the concrete value it wraps, so every method the shim does
// not time — and every optional capability the layers above probe for
// (BrowseFeedCtx, Healthy, the elastic surface) — is the wrapped value's
// own, and a wrapped call takes the production path. A method whose
// signature has a context finds its request there; the others recognise it
// by an argument (see recorder).

// handlerShim times an http.Handler: the gateway, the httpapi server, the
// rpc server.
type handlerShim struct {
	rec  *recorder
	name string
	next http.Handler
}

func (h handlerShim) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f := h.rec.enterRequest(r, h.name)
	if f != nil {
		r = r.WithContext(withFrame(r.Context(), f))
	}
	h.next.ServeHTTP(w, r)
	f.exit()
}

// counters are the per-layer counts taken at the same boundaries as the
// spans. They count always, spans or not.
type counters [numCounters]atomic.Int64

const (
	cShardCalls = iota // cluster → shard calls
	cRPCCalls
	cRPCReqBytes
	cRPCRespBytes
	cPlatformOps
	cPlatformNS
	cRecords // journaled ops
	cFsyncs
	cFsyncNS
	cWrites
	cWriteNS
	cWriteBytes
	numCounters
)

// snapshot reads every counter.
func (c *counters) snapshot() (v [numCounters]float64) {
	for i := range c {
		v[i] = float64(c[i].Load())
	}
	return v
}

// clusterShim is the httpapi.Backend seam over the coordinator. The layers
// above call BrowseFeedCtx whenever a backend has it, so the context-free
// BrowseFeed needs no span.
type clusterShim struct {
	*cluster.Cluster
	rec *recorder
}

func (s clusterShim) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	f := s.rec.enter(ctx, "cluster")
	defer f.exit()
	return s.Cluster.BrowseFeedCtx(withFrame(ctx, f), uid, slots)
}

func (s clusterShim) LikePage(uid profile.UserID, page string) error {
	defer s.rec.enterKeyed(string(uid), "cluster").exit()
	return s.Cluster.LikePage(uid, page)
}

func (s clusterShim) VisitPage(uid profile.UserID, px pixel.PixelID) error {
	defer s.rec.enterKeyed(string(uid), "cluster").exit()
	return s.Cluster.VisitPage(uid, px)
}

func (s clusterShim) AdPreferences(uid profile.UserID) ([]attr.ID, error) {
	defer s.rec.enterKeyed(string(uid), "cluster").exit()
	return s.Cluster.AdPreferences(uid)
}

func (s clusterShim) PotentialReach(ctx context.Context, adv string, spec audience.Spec) (int, error) {
	f := s.rec.enter(ctx, "cluster")
	defer f.exit()
	return s.Cluster.PotentialReach(withFrame(ctx, f), adv, spec)
}

func (s clusterShim) Report(ctx context.Context, adv, id string) (billing.Report, error) {
	f := s.rec.enter(ctx, "cluster")
	defer f.exit()
	return s.Cluster.Report(withFrame(ctx, f), adv, id)
}

func (s clusterShim) CreateCampaign(adv string, p platform.CampaignParams) (string, error) {
	defer s.rec.enterKeyed(p.Creative.Headline, "cluster").exit()
	return s.Cluster.CreateCampaign(adv, p)
}

func (s clusterShim) PauseCampaign(adv, id string) error {
	defer s.rec.enterKeyed(id, "cluster").exit()
	return s.Cluster.PauseCampaign(adv, id)
}

// shardShim is the cluster.Shard seam over the rpc client. RemoteShard's
// context-free methods are one-line forwards to the rpc client's method of
// the same name under context.Background(); the shim makes that same call
// under a context that carries the span, which is how the span reaches the
// transport seam and, in headers, the serving side.
type shardShim struct {
	*cluster.RemoteShard
	rec *recorder
	n   *counters
}

func (s shardShim) call(ctx context.Context) (*frame, context.Context) {
	s.n[cShardCalls].Add(1)
	f := s.rec.enter(ctx, "rpc.client")
	return f, withFrame(ctx, f)
}

func (s shardShim) callKeyed(key string) (*frame, context.Context) {
	s.n[cShardCalls].Add(1)
	f := s.rec.enterKeyed(key, "rpc.client")
	return f, withFrame(context.Background(), f)
}

func (s shardShim) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	f, ctx := s.call(ctx)
	defer f.exit()
	return s.RemoteShard.BrowseFeedCtx(ctx, uid, slots)
}

func (s shardShim) LikePage(uid profile.UserID, page string) error {
	f, ctx := s.callKeyed(string(uid))
	defer f.exit()
	return s.Client().LikePage(ctx, uid, page)
}

func (s shardShim) VisitPage(uid profile.UserID, px pixel.PixelID) error {
	f, ctx := s.callKeyed(string(uid))
	defer f.exit()
	return s.Client().VisitPage(ctx, uid, px)
}

func (s shardShim) AdPreferences(uid profile.UserID) ([]attr.ID, error) {
	f, ctx := s.callKeyed(string(uid))
	defer f.exit()
	return s.Client().AdPreferences(ctx, uid)
}

func (s shardShim) RawReach(ctx context.Context, adv string, spec audience.Spec) (int, error) {
	f, ctx := s.call(ctx)
	defer f.exit()
	return s.RemoteShard.RawReach(ctx, adv, spec)
}

func (s shardShim) CampaignTotals(ctx context.Context, adv, id string) (platform.CampaignTotals, error) {
	f, ctx := s.call(ctx)
	defer f.exit()
	return s.RemoteShard.CampaignTotals(ctx, adv, id)
}

func (s shardShim) CreateCampaign(adv string, p platform.CampaignParams) (string, error) {
	f, ctx := s.callKeyed(p.Creative.Headline)
	defer f.exit()
	return s.Client().CreateCampaign(ctx, adv, p)
}

func (s shardShim) PauseCampaign(adv, id string) error {
	f, ctx := s.callKeyed(id)
	defer f.exit()
	return s.Client().PauseCampaign(ctx, adv, id)
}

// transportShim is the rpc.Options.Transport seam: one span per round trip,
// stamped into the request so the serving side can continue the trace.
type transportShim struct {
	rec  *recorder
	n    *counters
	base http.RoundTripper
}

func (t transportShim) RoundTrip(req *http.Request) (*http.Response, error) {
	t.n[cRPCCalls].Add(1)
	if req.ContentLength > 0 {
		t.n[cRPCReqBytes].Add(req.ContentLength)
	}
	f := t.rec.enter(req.Context(), "rpc.wire")
	if f != nil {
		req = req.Clone(req.Context()) // a RoundTripper must not modify its argument
		f.stamp(req.Header)
	}
	resp, err := t.base.RoundTrip(req)
	f.exit()
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.n[cRPCRespBytes]}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// journaledShim is the rpc.Backend seam over a journaled shard: the span of
// the platform.Journaled public call.
type journaledShim struct {
	*platform.Journaled
	rec *recorder
	n   *counters
}

// timedOp closes the platform span f and books the call's duration.
// journaled marks ops that append a journal record.
func timedOp(f *frame, n *counters, journaled bool) func() {
	start := time.Now()
	return func() {
		n[cPlatformNS].Add(int64(time.Since(start)))
		n[cPlatformOps].Add(1)
		if journaled {
			n[cRecords].Add(1)
		}
		f.exit()
	}
}

func (s journaledShim) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	defer timedOp(s.rec.enter(ctx, "platform"), s.n, true)()
	return s.Journaled.BrowseFeedCtx(ctx, uid, slots)
}

func (s journaledShim) LikePage(uid profile.UserID, page string) error {
	defer timedOp(s.rec.enterKeyed(string(uid), "platform"), s.n, true)()
	return s.Journaled.LikePage(uid, page)
}

func (s journaledShim) VisitPage(uid profile.UserID, px pixel.PixelID) error {
	defer timedOp(s.rec.enterKeyed(string(uid), "platform"), s.n, true)()
	return s.Journaled.VisitPage(uid, px)
}

func (s journaledShim) AdPreferences(uid profile.UserID) ([]attr.ID, error) {
	defer timedOp(s.rec.enterKeyed(string(uid), "platform"), s.n, false)()
	return s.Journaled.AdPreferences(uid)
}

func (s journaledShim) RawReach(ctx context.Context, adv string, spec audience.Spec) (int, error) {
	defer timedOp(s.rec.enter(ctx, "platform"), s.n, false)()
	return s.Journaled.RawReach(ctx, adv, spec)
}

func (s journaledShim) CampaignTotals(ctx context.Context, adv, id string) (platform.CampaignTotals, error) {
	defer timedOp(s.rec.enter(ctx, "platform"), s.n, false)()
	return s.Journaled.CampaignTotals(ctx, adv, id)
}

func (s journaledShim) CreateCampaign(adv string, p platform.CampaignParams) (string, error) {
	defer timedOp(s.rec.enterKeyed(p.Creative.Headline, "platform"), s.n, true)()
	return s.Journaled.CreateCampaign(adv, p)
}

func (s journaledShim) PauseCampaign(adv, id string) error {
	defer timedOp(s.rec.enterKeyed(id, "platform"), s.n, true)()
	return s.Journaled.PauseCampaign(adv, id)
}

// platformShim is the httpapi.Backend seam on user_single, where the
// backend is the bare platform.
type platformShim struct {
	*platform.Platform
	rec *recorder
	n   *counters
}

func (s platformShim) BrowseFeedCtx(ctx context.Context, uid profile.UserID, slots int) ([]ad.Impression, error) {
	defer timedOp(s.rec.enter(ctx, "platform"), s.n, false)()
	return s.Platform.BrowseFeedCtx(ctx, uid, slots)
}

func (s platformShim) LikePage(uid profile.UserID, page string) error {
	defer timedOp(s.rec.enterKeyed(string(uid), "platform"), s.n, false)()
	return s.Platform.LikePage(uid, page)
}

func (s platformShim) VisitPage(uid profile.UserID, px pixel.PixelID) error {
	defer timedOp(s.rec.enterKeyed(string(uid), "platform"), s.n, false)()
	return s.Platform.VisitPage(uid, px)
}

func (s platformShim) AdPreferences(uid profile.UserID) ([]attr.ID, error) {
	defer timedOp(s.rec.enterKeyed(string(uid), "platform"), s.n, false)()
	return s.Platform.AdPreferences(uid)
}

// fsShim is the journal.Options.FS seam: it times and counts the segment
// file's writes and fsyncs. The seam has no request to hang a span on, and a
// group commit's flush serves a whole batch anyway, so these are counters
// only; the attribution table shows them as a share of the platform row.
type fsShim struct {
	faults.FS
	n *counters
}

func (s fsShim) OpenFile(name string, flag int, perm os.FileMode) (faults.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return fileShim{File: f, n: s.n}, nil
}

type fileShim struct {
	faults.File
	n *counters
}

func (f fileShim) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.n[cWriteNS].Add(int64(time.Since(start)))
	f.n[cWriteBytes].Add(int64(n))
	f.n[cWrites].Add(1)
	return n, err
}

func (f fileShim) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.n[cFsyncNS].Add(int64(time.Since(start)))
	f.n[cFsyncs].Add(1)
	return err
}
