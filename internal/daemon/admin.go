package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"payless"
	"payless/internal/tenant"
)

// TenantSpec is the JSON shape of one tenant in paylessd's -tenants-file.
// Durations are milliseconds so a config file needs no duration grammar.
type TenantSpec struct {
	Name       string  `json:"name"`
	Key        string  `json:"key"`
	Budget     int64   `json:"budget,omitempty"`
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
	Weight     float64 `json:"weight,omitempty"`
	DeadlineMs int64   `json:"deadline_ms,omitempty"`
}

// TenantConfig converts the file shape into the registry's config.
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

// EndpointSpec is the JSON shape of one federation endpoint on the admin
// API (PUT /v1/admin/endpoints).
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

// adminAuth gates the admin API: with no AdminKey configured the surface
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
