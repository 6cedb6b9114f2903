// Multi-model tenancy: a Registry hosts many named models in one process,
// each behind the full single-model Server (its own journal, holdout,
// replication epoch, and metrics), routed by URL path prefix or header:
//
//	POST /m/<name>/v1/predict      path-prefix routing (stripped before the
//	                               tenant's own mux sees the request)
//	POST /v1/predict               header routing: X-Ptucker-Model: <name>
//	GET  /healthz                  registry health — every tenant's load
//	                               state, without cold-loading anything
//	GET  /metrics                  one merged exposition: every loaded
//	                               tenant's families under model="<name>",
//	                               process runtime families once
//
// Tenants are discovered once, at construction, from a models directory:
// a subdirectory holding a model.ptkm is a durable tenant (the directory
// becomes its DataDir, so observes journal and refits compact per tenant),
// and a bare <name>.ptkm file is a read-mostly tenant with no durability.
//
// Loading is lazy: a tenant's Server is built on first touch, and — when
// the per-tenant Options enable Mmap — the model bytes stay in a read-only
// file mapping. MaxMappedBytes bounds the total across tenants: crossing
// it evicts the least-recently-touched idle tenant, closing its Server and
// unmapping its model. Eviction takes the tenant's write lock, which waits
// for every in-flight request (they hold the read lock for the duration of
// the request), so a mapping is never torn down under a live prediction.
package serve

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	expo "repro/internal/metrics"
	"repro/internal/store"
)

// ModelHeader is the request header naming the target model when routing
// without the /m/<name>/ path prefix.
const ModelHeader = "X-Ptucker-Model"

// tenantName validates discovered model names: they appear in URLs and
// metric label values, so they are restricted to a filesystem- and
// label-safe alphabet.
var tenantName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// RegistryOptions configures a multi-model Registry.
type RegistryOptions struct {
	// ModelsDir is scanned once for tenants: subdirectories containing a
	// model.ptkm (durable, the subdirectory is the tenant's DataDir) and
	// bare <name>.ptkm files (non-durable). Required.
	ModelsDir string
	// MaxMappedBytes bounds the total MappedBytes across loaded tenants;
	// crossing it after a load evicts least-recently-touched tenants until
	// back under the bound (the tenant that just loaded is never evicted).
	// 0 means unbounded.
	MaxMappedBytes int64
	// Base is the Options template every tenant Server is built from.
	// ModelPath, Model, DataDir, HoldoutPath, and Follow are overwritten
	// per tenant; everything else (Workers, Mmap, AuthToken, timeouts,
	// logging...) applies to all tenants uniformly.
	Base Options
}

// Registry is the multi-model router. All methods are safe for concurrent
// use. Its mutexes extend the package hierarchy documented on Server:
// Registry.mu (tenant table and LRU bookkeeping) is the outermost lock,
// tenant.mu sits between it and the per-Server locks.
type Registry struct {
	opts RegistryOptions
	log  *slog.Logger

	mu      sync.Mutex
	tenants map[string]*tenant

	evictions atomic.Int64

	now func() time.Time
}

// tenant is one named model slot. srv and handler are nil while the tenant
// is cold (never touched, or evicted); both are guarded by mu. Requests
// hold mu.RLock for their full duration, so an eviction's mu.Lock cannot
// unmap a model while any request still reads it.
type tenant struct {
	name      string
	dataDir   string // "" for a bare-file (non-durable) tenant
	modelPath string
	holdout   string

	mu      sync.RWMutex
	srv     *Server
	handler http.Handler

	// loaded mirrors srv != nil for lock-free health reporting; lastTouch
	// (UnixNano) is the LRU clock, stamped on every acquire.
	loaded    atomic.Bool
	lastTouch atomic.Int64
}

// NewRegistry scans opts.ModelsDir and returns a registry serving every
// tenant found there. No model is loaded yet — tenants load on first touch.
func NewRegistry(opts RegistryOptions) (*Registry, error) {
	if opts.ModelsDir == "" {
		return nil, fmt.Errorf("serve: RegistryOptions needs a ModelsDir")
	}
	entries, err := os.ReadDir(opts.ModelsDir)
	if err != nil {
		return nil, fmt.Errorf("serve: models dir: %w", err)
	}
	r := &Registry{
		opts:    opts,
		tenants: make(map[string]*tenant),
		now:     time.Now,
	}
	r.log = opts.Base.Logger
	if r.log == nil {
		r.log = slog.Default()
	}
	for _, ent := range entries {
		var t *tenant
		switch {
		case ent.IsDir():
			dir := filepath.Join(opts.ModelsDir, ent.Name())
			mp := filepath.Join(dir, store.ModelFile)
			if _, err := os.Stat(mp); err != nil {
				continue // not a tenant directory (no model yet)
			}
			t = &tenant{name: ent.Name(), dataDir: dir, modelPath: mp}
			for _, h := range []string{"holdout.tns", "holdout.ptkt"} {
				if _, err := os.Stat(filepath.Join(dir, h)); err == nil {
					t.holdout = filepath.Join(dir, h)
					break
				}
			}
		case strings.HasSuffix(ent.Name(), ".ptkm"):
			name := strings.TrimSuffix(ent.Name(), ".ptkm")
			t = &tenant{name: name, modelPath: filepath.Join(opts.ModelsDir, ent.Name())}
		default:
			continue
		}
		if !tenantName.MatchString(t.name) {
			return nil, fmt.Errorf("serve: model name %q is not URL- and label-safe", t.name)
		}
		if _, dup := r.tenants[t.name]; dup {
			return nil, fmt.Errorf("serve: model %q discovered twice (directory and bare file)", t.name)
		}
		r.tenants[t.name] = t
	}
	if len(r.tenants) == 0 {
		return nil, fmt.Errorf("serve: no models found under %s (want <name>/%s directories or <name>.ptkm files)",
			opts.ModelsDir, store.ModelFile)
	}
	r.log.Info("registry discovered models", "dir", opts.ModelsDir, "models", len(r.tenants))
	return r, nil
}

// Models returns the discovered tenant names, sorted.
func (r *Registry) Models() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// tenantOptions builds one tenant's Server Options from the base template.
func (r *Registry) tenantOptions(t *tenant) Options {
	o := r.opts.Base
	o.Model = nil
	o.ModelPath = t.modelPath
	o.DataDir = t.dataDir
	o.HoldoutPath = t.holdout
	o.Follow = "" // registry tenants are primaries
	o.Logger = r.log.With("model", t.name)
	return o
}

// acquire returns name's handler with the tenant read-locked; the caller
// must invoke release when the request is done. Cold tenants load here
// (first touch), which may in turn evict someone else's mapping.
func (r *Registry) acquire(name string) (http.Handler, func(), error) {
	r.mu.Lock()
	t := r.tenants[name]
	r.mu.Unlock()
	if t == nil {
		return nil, nil, fmt.Errorf("unknown model %q", name)
	}
	for {
		t.mu.RLock()
		if t.srv != nil {
			t.lastTouch.Store(r.now().UnixNano())
			h := t.handler
			return h, t.mu.RUnlock, nil
		}
		t.mu.RUnlock()
		if err := r.load(t); err != nil {
			return nil, nil, err
		}
		// Loop: the load published srv (ours or a concurrent caller's), but
		// an eviction may race in between — re-check under the read lock.
	}
}

// load builds t's Server if it is still cold, then rebalances the mapped-
// bytes budget. The eviction scan runs after t.mu is released (lock order:
// Registry.mu must not be taken while holding tenant.mu), and never picks
// the tenant that just loaded.
func (r *Registry) load(t *tenant) error {
	t.mu.Lock()
	if t.srv == nil {
		srv, err := New(r.tenantOptions(t))
		if err != nil {
			t.mu.Unlock()
			return fmt.Errorf("model %s: %w", t.name, err)
		}
		t.srv = srv
		t.handler = srv.Handler()
		t.loaded.Store(true)
		t.lastTouch.Store(r.now().UnixNano())
		r.log.Info("model loaded into registry",
			"model", t.name, "durable", t.dataDir != "", "mapped_bytes", srv.MappedBytes())
	}
	t.mu.Unlock()
	r.maybeEvict(t)
	return nil
}

// maybeEvict closes least-recently-touched tenants until the total mapped
// bytes fit MaxMappedBytes again. keep (the tenant that triggered the
// rebalance) is exempt: the model just asked for must be allowed to serve
// even if it alone exceeds the bound.
func (r *Registry) maybeEvict(keep *tenant) {
	max := r.opts.MaxMappedBytes
	if max <= 0 {
		return
	}
	for r.MappedBytes() > max {
		victim := r.coldest(keep)
		if victim == nil {
			return
		}
		// The write lock waits for every in-flight request on the victim
		// (each holds the read lock end-to-end), so Close never unmaps a
		// model a live request still reads.
		victim.mu.Lock()
		if victim.srv != nil {
			freed := victim.srv.MappedBytes()
			victim.srv.Close()
			victim.srv = nil
			victim.handler = nil
			victim.loaded.Store(false)
			r.evictions.Add(1)
			r.log.Info("model evicted from registry", "model", victim.name, "freed_bytes", freed)
		}
		victim.mu.Unlock()
	}
}

// coldest picks the loaded tenant with the oldest lastTouch, excluding
// keep; nil when no eviction candidate remains.
func (r *Registry) coldest(keep *tenant) *tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	var victim *tenant
	for _, t := range r.tenants {
		if t == keep || !t.loaded.Load() {
			continue
		}
		if victim == nil || t.lastTouch.Load() < victim.lastTouch.Load() {
			victim = t
		}
	}
	return victim
}

// MappedBytes reports the total model bytes currently served from memory
// mappings across every loaded tenant.
func (r *Registry) MappedBytes() int64 {
	var total int64
	for _, t := range r.snapshotTenants() {
		t.mu.RLock()
		if t.srv != nil {
			total += t.srv.MappedBytes()
		}
		t.mu.RUnlock()
	}
	return total
}

// snapshotTenants returns the tenant set, name-sorted, without holding
// Registry.mu beyond the copy (per-tenant locks come after r.mu in the
// hierarchy but are taken one at a time by the callers).
func (r *Registry) snapshotTenants() []*tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := make([]*tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })
	return ts
}

// Close shuts every loaded tenant down. The caller shuts the http.Server
// down first, same as with a single-model Server.
func (r *Registry) Close() {
	for _, t := range r.snapshotTenants() {
		t.mu.Lock()
		if t.srv != nil {
			t.srv.Close()
			t.srv = nil
			t.handler = nil
			t.loaded.Store(false)
		}
		t.mu.Unlock()
	}
}

// Handler returns the registry's route table: tenant traffic under /m/ or
// via the model header, plus the registry-scoped health and metrics.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/m/", r.handlePrefixed)
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/", r.handleHeaderRouted)
	return mux
}

// handlePrefixed serves /m/<name>/<rest>: the prefix is stripped so the
// tenant's own mux sees the request at <rest>, exactly as a single-model
// deployment would. A replication follower can therefore follow one tenant
// by pointing -follow at http://host:port/m/<name> unchanged.
func (r *Registry) handlePrefixed(w http.ResponseWriter, req *http.Request) {
	name, rest, _ := strings.Cut(strings.TrimPrefix(req.URL.Path, "/m/"), "/")
	r.serveTenant(w, req, name, "/"+rest)
}

// handleHeaderRouted serves any other path carrying the model header; a
// request naming no model cannot be routed and is answered 404 with the
// routing contract spelled out.
func (r *Registry) handleHeaderRouted(w http.ResponseWriter, req *http.Request) {
	name := req.Header.Get(ModelHeader)
	if name == "" {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: fmt.Sprintf("multi-model server: route with /m/<name>%s or the %s header", req.URL.Path, ModelHeader),
		})
		return
	}
	r.serveTenant(w, req, name, req.URL.Path)
}

func (r *Registry) serveTenant(w http.ResponseWriter, req *http.Request, name, path string) {
	if !tenantName.MatchString(name) {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "malformed model name"})
		return
	}
	h, release, err := r.acquire(name)
	if err != nil {
		status := http.StatusNotFound
		if !strings.HasPrefix(err.Error(), "unknown model") {
			// Discovered but unloadable (corrupt file, bad journal): the
			// request was well-addressed, the backend is what failed.
			status = http.StatusInternalServerError
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	defer release()
	// Shallow request clone with the tenant-relative path; the original
	// URL must stay untouched (the mux may reuse it).
	r2 := new(http.Request)
	*r2 = *req
	u := *req.URL
	u.Path = path
	r2.URL = &u
	h.ServeHTTP(w, r2)
}

// registryStatus is the /healthz shape: per-tenant load state, no loads
// triggered by the probe itself.
type registryStatus struct {
	Status      string               `json:"status"`
	Models      []registryModelState `json:"models"`
	MappedBytes int64                `json:"mapped_bytes"`
}

type registryModelState struct {
	Name    string `json:"name"`
	Durable bool   `json:"durable"`
	Loaded  bool   `json:"loaded"`
}

func (r *Registry) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "method not allowed"})
		return
	}
	st := registryStatus{Status: "ok", MappedBytes: r.MappedBytes()}
	for _, t := range r.snapshotTenants() {
		st.Models = append(st.Models, registryModelState{
			Name:    t.name,
			Durable: t.dataDir != "",
			Loaded:  t.loaded.Load(),
		})
	}
	writeJSON(w, http.StatusOK, st)
}

// handleMetrics renders one merged exposition: registry-scoped families,
// every loaded tenant's full family set under its constant model label,
// and the process runtime families exactly once. Cold tenants are not
// loaded by a scrape.
func (r *Registry) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	merger := expo.NewMerger()
	var loaded int
	var mapped int64
	var frags [][]byte
	for _, t := range r.snapshotTenants() {
		t.mu.RLock()
		if t.srv != nil {
			var buf bytes.Buffer
			t.srv.renderMetrics(expo.NewExpo(&buf).WithConstLabel("model", t.name))
			frags = append(frags, buf.Bytes())
			loaded++
			mapped += t.srv.MappedBytes()
		}
		t.mu.RUnlock()
	}

	var reg bytes.Buffer
	e := expo.NewExpo(&reg)
	r.mu.Lock()
	total := len(r.tenants)
	r.mu.Unlock()
	e.GaugeInt("ptucker_registry_models", "Models discovered in the models directory.", int64(total))
	e.GaugeInt("ptucker_registry_models_loaded", "Models currently loaded (serving or idle-warm).", int64(loaded))
	e.Counter("ptucker_registry_evictions_total", "Tenant models evicted to stay under the mapped-bytes budget.", r.evictions.Load())
	e.GaugeInt("ptucker_registry_mapped_bytes", "Total model bytes served from memory mappings across loaded tenants.", mapped)

	var rt bytes.Buffer
	renderRuntime(expo.NewExpo(&rt))

	if err := merger.Add(reg.Bytes()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	for _, frag := range frags {
		if err := merger.Add(frag); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	if err := merger.Add(rt.Bytes()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = merger.WriteTo(w)
}

// renderMetrics writes this server's families into e — the registry's
// per-tenant scrape path. The runtime families are the caller's concern
// (emitted once per process, not once per tenant).
func (s *Server) renderMetrics(e *expo.Expo) {
	s.met.render(e, s.snapshot, s.replSample, s.MappedBytes)
}
