// Package clientuser exercises the client surface: every request method is
// context-first and every error is returned to the caller, so no check has
// anything to flag here -- the package must stay finding-free.
package clientuser

import (
	"context"

	"fixture/internal/client"
)

// storeCtx is the current request shape: context-first methods pass clean.
func storeCtx(ctx context.Context, c *client.Client) error {
	return c.PutCtx(ctx, "obj")
}

// fetchCtx fetches with a context.
func fetchCtx(ctx context.Context, c *client.Client) (string, error) {
	return c.GetCtx(ctx, "obj")
}

// placeCtx places on the cluster with a context.
func placeCtx(ctx context.Context, cc *client.ClusterClient) error {
	return cc.PutCtx(ctx, "obj")
}
