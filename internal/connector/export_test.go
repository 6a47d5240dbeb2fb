package connector

import "time"

// SetPerCallTimeout shortens c's per-attempt deadline for the external
// tests; 0 leaves each attempt bounded only by the caller's context.
func SetPerCallTimeout(c *Client, d time.Duration) { c.perCallTimeout = d }
