// A second QueryBackend class beside its engine's: a snapshot class that
// re-implements every read instead of the engine reading its version.
#include "query/backend.h"
class PolyglotSnapshotBad final
    : public hygraph::query::QueryBackend {};
