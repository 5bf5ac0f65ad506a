package client

// Functional-options construction for single-node clients, mirroring the
// ClusterOption pattern DialCluster already uses.

import (
	"crypto/tls"
	"time"
)

// DefaultDialTimeout bounds Connect's dial when WithTimeout is not given.
const DefaultDialTimeout = 5 * time.Second

// Option configures Connect.
type Option func(*dialConfig)

type dialConfig struct {
	timeout time.Duration
	cfg     Config
}

// WithTimeout bounds the TCP dial (default DefaultDialTimeout).
func WithTimeout(d time.Duration) Option {
	return func(c *dialConfig) { c.timeout = d }
}

// WithConfig replaces the whole robustness configuration (default
// DefaultConfig). Compose with the narrower options below, which apply in
// order: Connect(addr, WithConfig(cfg), WithWindow(256)) keeps cfg except
// for the window.
func WithConfig(cfg Config) Option {
	return func(c *dialConfig) { c.cfg = cfg }
}

// WithWindow caps the requests pipelined in flight on the connection.
func WithWindow(n int) Option {
	return func(c *dialConfig) { c.cfg.Window = n }
}

// WithMaxBatchSubs caps the sub-requests PutBatch packs per BATCH frame.
func WithMaxBatchSubs(n int) Option {
	return func(c *dialConfig) { c.cfg.MaxBatchSubs = n }
}

// WithTLS dials over TLS with mutual auth (see secure.ClientConfig); nil
// keeps the cleartext default.
func WithTLS(tc *tls.Config) Option {
	return func(c *dialConfig) { c.cfg.TLS = tc }
}

// Connect connects to a node, configured by options. With none it dials
// for up to DefaultDialTimeout with DefaultConfig robustness: per-request
// deadlines plus reconnect-on-error with exponential backoff.
func Connect(addr string, opts ...Option) (*Client, error) {
	dc := dialConfig{timeout: DefaultDialTimeout, cfg: DefaultConfig()}
	for _, opt := range opts {
		opt(&dc)
	}
	return dial(addr, dc.timeout, dc.cfg)
}
