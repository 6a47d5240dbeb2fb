package market

import (
	"net/http"
	"time"
)

// Server timeout defaults. A market data call is a bounded scan plus one
// page (PageRows rows), so generous-but-finite limits protect the
// server from slow-loris clients and stuck connections without ever cutting
// off a legitimate page.
const (
	// ServerReadHeaderTimeout bounds reading a request's headers.
	ServerReadHeaderTimeout = 10 * time.Second
	// ServerReadTimeout bounds reading a whole request (all requests are
	// body-less GETs).
	ServerReadTimeout = 30 * time.Second
	// ServerWriteTimeout bounds writing one response page.
	ServerWriteTimeout = 2 * time.Minute
	// ServerIdleTimeout bounds how long a keep-alive connection may sit idle.
	ServerIdleTimeout = 2 * time.Minute
)

// ConfigureServer applies the market's timeout defaults to an existing
// http.Server, leaving any timeout the caller already set untouched.
func ConfigureServer(srv *http.Server) {
	if srv.ReadHeaderTimeout == 0 {
		srv.ReadHeaderTimeout = ServerReadHeaderTimeout
	}
	if srv.ReadTimeout == 0 {
		srv.ReadTimeout = ServerReadTimeout
	}
	if srv.WriteTimeout == 0 {
		srv.WriteTimeout = ServerWriteTimeout
	}
	if srv.IdleTimeout == 0 {
		srv.IdleTimeout = ServerIdleTimeout
	}
}

// NewServer returns an http.Server for handler with the market's timeout
// defaults set. Use it instead of a bare &http.Server{...} (or
// http.ListenAndServe, which sets no timeouts at all) when serving a market
// over a real network.
func NewServer(addr string, handler http.Handler) *http.Server {
	srv := &http.Server{Addr: addr, Handler: handler}
	ConfigureServer(srv)
	return srv
}

// Server returns an http.Server serving this market's RESTful interface at
// addr with the timeout defaults applied.
func (m *Market) Server(addr string) *http.Server {
	return NewServer(addr, m.Handler())
}
