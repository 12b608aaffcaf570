package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	dynxml "repro"
	"repro/client"
	"repro/internal/catalog"
	"repro/internal/dyndoc"
	"repro/internal/web"
)

// spanHeader carries the client span id to the server wrapper of a
// traced run.
const spanHeader = "X-Perfbench-Span"

// server is one catalog served by web.New on a loopback listener, behind
// a wrapper that records a span per request while a tracer is set.
type server struct {
	cat    *catalog.Catalog
	web    *web.Server
	hs     *http.Server
	url    string
	done   chan error
	tracer atomic.Pointer[tracer]
}

// serve starts cat's HTTP surface on 127.0.0.1 with a kernel-chosen
// port.
func serve(cat *catalog.Catalog) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{cat: cat, web: web.New(web.Config{Catalog: cat}), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	s.hs = &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// ServeHTTP is the wrapper around *web.Server.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := s.tracer.Load()
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	if t == nil || parent == 0 {
		s.web.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	s.web.ServeHTTP(cw, r)
	t.add(span{Name: "web.server", Parent: parent, Start: t.at(start), End: t.at(time.Now()), Bytes: cw.n})
}

// close stops accepting, waits for the serve goroutine and closes the
// catalog, which checkpoints and closes every resident document.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.cat.Close(); err == nil {
		err = cerr
	}
	return err
}

// countingWriter counts the response bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// Flush keeps streaming routes working through the wrapper.
func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// benchClient is one client connection: a typed client over a
// transport limited to one connection, which stamps the current span
// id on each request of a traced run.
type benchClient struct {
	c   *client.Client
	tr  *http.Transport
	cur atomic.Uint64 // span id of the call in flight (0: untraced)
}

func newBenchClient(url string) (*benchClient, error) {
	bc := &benchClient{tr: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	c, err := client.Dial(url, client.WithHTTPClient(&http.Client{Transport: bc, Timeout: time.Minute}), client.WithRetries(1))
	if err != nil {
		return nil, err
	}
	bc.c = c
	return bc, nil
}

// RoundTrip stamps the span header when a traced call is in flight.
func (bc *benchClient) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := bc.cur.Load(); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	return bc.tr.RoundTrip(r)
}

func (bc *benchClient) close() { bc.tr.CloseIdleConnections() }

// env is one set-up of a workload: the leader (and, for paged-replica,
// the follower) serving the corpus.
type env struct {
	lead   *server
	follow *server // nil unless the workload has a replica
	docs   []*docState
	admin  *benchClient // the set-up connection, kept for final checks
	dir    string       // the catalogs live under it
}

// setupEnv builds a workload's servers from empty directories under
// dir and returns once every document is served and any follower has
// caught up with its leader.
func setupEnv(wl *workload, dir string, corpus []docSpec) (*env, error) {
	cfg := catalog.Config{Root: filepath.Join(dir, "leader"), Scheme: benchScheme, Durability: dynxml.Always}
	if wl.paged {
		cfg.PagedLabels, cfg.PageCache = true, 64
	}
	cat, err := catalog.Open(cfg)
	if err != nil {
		return nil, err
	}
	lead, err := serve(cat)
	if err != nil {
		_ = cat.Close()
		return nil, err
	}
	e := &env{lead: lead, dir: dir}
	if e.admin, err = newBenchClient(lead.url); err != nil {
		e.close()
		return nil, err
	}
	for _, d := range corpus {
		if _, err := e.admin.c.Create(d.name, d.xml, benchScheme); err != nil {
			e.close()
			return nil, fmt.Errorf("creating %s: %w", d.name, err)
		}
	}
	if wl.paged {
		if err := e.startFollower(dir, corpus); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// startFollower serves a follower catalog of the leader and waits until
// every document has reached the leader's horizon.
func (e *env) startFollower(dir string, corpus []docSpec) error {
	fcat, err := catalog.Open(catalog.Config{Root: filepath.Join(dir, "follower"), FollowURL: e.lead.url})
	if err != nil {
		return err
	}
	if e.follow, err = serve(fcat); err != nil {
		_ = fcat.Close()
		return err
	}
	fc, err := newBenchClient(e.follow.url)
	if err != nil {
		return err
	}
	defer fc.close()
	for _, d := range corpus {
		ld, err := e.admin.c.Open(d.name)
		if err != nil {
			return err
		}
		st, err := ld.Stats()
		if err != nil {
			return err
		}
		if st.Journal == nil {
			return fmt.Errorf("leader %s reports no journal", d.name)
		}
		fd, err := fc.c.Open(d.name)
		if err != nil {
			return fmt.Errorf("opening follower %s: %w", d.name, err)
		}
		if _, ok, err := fd.FollowHorizon(st.Journal.Seq, 30*time.Second); err != nil || !ok {
			return fmt.Errorf("follower %s did not reach horizon %d: %v", d.name, st.Journal.Seq, err)
		}
	}
	return nil
}

// close shuts the follower down before its leader.
func (e *env) close() {
	if e.admin != nil {
		e.admin.close()
	}
	if e.follow != nil {
		_ = e.follow.close()
	}
	_ = e.lead.close()
}

// pinned runs fn on the latest snapshot of a leader document.
func (e *env) pinned(name string, fn func(h *dynxml.Handle, d *dyndoc.Document) error) error {
	pin, err := e.lead.cat.Acquire(name)
	if err != nil {
		return err
	}
	defer pin.Release()
	h := pin.Handle()
	return h.Shared().Snapshot(func(d *dyndoc.Document) error { return fn(h, d) })
}

// prepare records, for every served document, the document order of
// its original elements and the parents edits may insert under.
func (e *env) prepare(corpus []docSpec) error {
	for _, spec := range corpus {
		ds := &docState{name: spec.name}
		err := e.pinned(spec.name, func(h *dynxml.Handle, d *dyndoc.Document) error {
			ds.rank = rankOf(d.Store().Elems())
			tree := d.Labeling().Tree()
			for _, id := range d.Store().IDs("scene") {
				ds.scenes = append(ds.scenes, slot{id, len(tree.Children[id])})
			}
			for _, id := range d.Store().IDs("speech") {
				ds.speech = append(ds.speech, slot{id, len(tree.Children[id])})
			}
			ds.nodes = h.Len()
			return nil
		})
		if err != nil {
			return err
		}
		if len(ds.scenes) == 0 || len(ds.speech) == 0 {
			return fmt.Errorf("%s has no scene or speech to edit under", spec.name)
		}
		e.docs = append(e.docs, ds)
	}
	return nil
}
