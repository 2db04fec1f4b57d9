#ifndef HYGRAPH_STORAGE_POLYGLOT_H_
#define HYGRAPH_STORAGE_POLYGLOT_H_

// Mirrors src/storage/polyglot.h: an engine's home, exempt from
// backend-subclass.
#include "query/backend.h"

namespace hygraph::storage {

class PolyglotStore final : public query::QueryBackend {};

}  // namespace hygraph::storage

#endif  // HYGRAPH_STORAGE_POLYGLOT_H_
