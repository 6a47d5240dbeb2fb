package payless

import (
	"io"

	"payless/internal/catalog"
	"payless/internal/semstore"
)

// ErrBadSnapshot is wrapped by LoadStore when the input is not a
// semantic-store snapshot at all: unparseable JSON, a missing or wrong magic
// header, or an unsupported version. Test with errors.Is.
var ErrBadSnapshot = semstore.ErrBadSnapshot

// SaveStore exports the semantic store — every paid-for call and its
// materialised rows — as the same snapshot a durable store's checkpoint
// writes. To keep purchases across restarts, open the client with
// WithDurableStore; SaveStore is for moving them to another client.
func (c *Client) SaveStore(w io.Writer) error {
	return c.store.Save(w)
}

// LoadStore imports a snapshot written by SaveStore or by a durable store's
// checkpoint. Tables must exist in this client's catalog with the same
// schemas. Queries covered by the imported store are answered without
// paying the market again. On a durable client the import is checkpointed,
// so it survives a restart like anything bought.
//
// The whole snapshot is validated before anything is applied, so a truncated
// or corrupt file leaves the store untouched. A file that is not a snapshot
// fails with an error matching ErrBadSnapshot. The one error after which the
// import is applied is a durable client's failed checkpoint: the rows are
// loaded in memory but not yet durable. Retry CheckpointStore then, not
// LoadStore, which would import the records twice.
func (c *Client) LoadStore(r io.Reader) error {
	return c.store.Load(r, func(table string) (*catalog.Table, bool) {
		return c.cat.Lookup(table)
	})
}
