package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"payless"
	"payless/internal/tenant"
)

// TenantSpec is the JSON shape of one tenant, both in -tenants-file and on
// the admin API. Durations are milliseconds so a config file needs no
// duration grammar.
type TenantSpec struct {
	Name       string  `json:"name"`
	Key        string  `json:"key"`
	Budget     int64   `json:"budget,omitempty"`
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
	Weight     float64 `json:"weight,omitempty"`
	DeadlineMs int64   `json:"deadline_ms,omitempty"`
}

// TenantConfig converts the wire/file shape into the registry's config.
func (t TenantSpec) TenantConfig() tenant.Config {
	return tenant.Config{
		Name:       t.Name,
		Key:        t.Key,
		Budget:     t.Budget,
		RatePerSec: t.RatePerSec,
		Burst:      t.Burst,
		Weight:     t.Weight,
		Deadline:   time.Duration(t.DeadlineMs) * time.Millisecond,
	}
}

// specOf renders a registry config back to the wire shape. The key is
// elided: listings must not leak credentials.
func specOf(c tenant.Config) TenantSpec {
	return TenantSpec{
		Name:       c.Name,
		Budget:     c.Budget,
		RatePerSec: c.RatePerSec,
		Burst:      c.Burst,
		Weight:     c.Weight,
		DeadlineMs: c.Deadline.Milliseconds(),
	}
}

// EndpointSpec is the JSON shape of one federation endpoint on the admin
// API (PUT /v1/admin/endpoints) and in paylessd's endpoint reload.
type EndpointSpec struct {
	Name          string  `json:"name"`
	BaseURL       string  `json:"base_url"`
	AccountKey    string  `json:"account_key,omitempty"`
	PriceFactor   float64 `json:"price_factor,omitempty"`
	LatencyHintMs int64   `json:"latency_hint_ms,omitempty"`
}

// MarketEndpoint converts the wire shape into the client's endpoint form.
func (e EndpointSpec) MarketEndpoint() payless.MarketEndpoint {
	return payless.MarketEndpoint{
		Name:        e.Name,
		BaseURL:     e.BaseURL,
		AccountKey:  e.AccountKey,
		PriceFactor: e.PriceFactor,
		LatencyHint: time.Duration(e.LatencyHintMs) * time.Millisecond,
	}
}

// adminAuth gates /v1/admin/*: with no AdminKey configured the surface
// does not exist (404, indistinguishable from an unknown path); with one,
// the request must carry it as a bearer token or X-Api-Key.
func (s *Server) adminAuth(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.AdminKey == "" {
		http.NotFound(w, r)
		return false
	}
	if apiKey(r) != s.cfg.AdminKey {
		writeError(w, http.StatusUnauthorized, errors.New("daemon: admin key required"))
		return false
	}
	return true
}

// handleAdminTenants serves GET /v1/admin/tenants: the live tenant table,
// keys elided.
func (s *Server) handleAdminTenants(w http.ResponseWriter, r *http.Request) {
	if !s.adminAuth(w, r) {
		return
	}
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	cfgs := s.cfg.Registry.Configs()
	specs := make([]TenantSpec, 0, len(cfgs))
	for _, c := range cfgs {
		specs = append(specs, specOf(c))
	}
	writeJSON(w, http.StatusOK, specs)
}

// handleAdminTenant serves PUT/DELETE /v1/admin/tenants/{name}: live tenant
// CRUD without a restart. PUT upserts (a reconfigured tenant keeps its
// spend and rate-limiter state); DELETE revokes the tenant's key
// immediately — in-flight queries finish under the budget already
// reserved.
func (s *Server) handleAdminTenant(w http.ResponseWriter, r *http.Request) {
	if !s.adminAuth(w, r) {
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/v1/admin/tenants/")
	if name == "" || strings.Contains(name, "/") {
		writeError(w, http.StatusBadRequest, errors.New("daemon: want /v1/admin/tenants/{name}"))
		return
	}
	switch r.Method {
	case http.MethodPut:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("daemon: read body: %w", err))
			return
		}
		var spec TenantSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("daemon: decode tenant: %w", err))
			return
		}
		if spec.Name == "" {
			spec.Name = name
		}
		if spec.Name != name {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("daemon: body name %q does not match path name %q", spec.Name, name))
			return
		}
		if err := s.cfg.Registry.Upsert(spec.TenantConfig()); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, specOf(func() tenant.Config {
			for _, c := range s.cfg.Registry.Configs() {
				if c.Name == name {
					return c
				}
			}
			return spec.TenantConfig()
		}()))
	case http.MethodDelete:
		if !s.cfg.Registry.Remove(name) {
			writeError(w, http.StatusNotFound, fmt.Errorf("daemon: no tenant %q", name))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "PUT, DELETE")
		writeError(w, http.StatusMethodNotAllowed, errors.New("PUT or DELETE only"))
	}
}

// handleAdminEndpoints serves PUT /v1/admin/endpoints: hot-swap the
// federation pool on the shared client. In-flight calls finish on the old
// endpoints; observed latency/health state carries over for endpoints that
// stay by name. 400 when the client was opened on a single market caller
// rather than on federation endpoints.
func (s *Server) handleAdminEndpoints(w http.ResponseWriter, r *http.Request) {
	if !s.adminAuth(w, r) {
		return
	}
	if r.Method != http.MethodPut {
		w.Header().Set("Allow", http.MethodPut)
		writeError(w, http.StatusMethodNotAllowed, errors.New("PUT only"))
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("daemon: read body: %w", err))
		return
	}
	var specs []EndpointSpec
	if err := json.Unmarshal(body, &specs); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("daemon: decode endpoints: %w", err))
		return
	}
	eps := make([]payless.MarketEndpoint, 0, len(specs))
	for _, sp := range specs {
		eps = append(eps, sp.MarketEndpoint())
	}
	if err := s.cfg.Client.UpdateFederationEndpoints(eps); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Endpoints: s.cfg.Client.FederationHealth()})
}
