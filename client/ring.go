package client

import (
	"context"
	"net/http"
)

// ClusterStatus reads the server's GET /v2/cluster document. Single-box
// servers do not serve the route; the call returns the 404's typed
// error.
func (c *Client) ClusterStatus(ctx context.Context) (*ClusterStatus, error) {
	var st ClusterStatus
	if err := c.do(ctx, http.MethodGet, "/v2/cluster", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}
