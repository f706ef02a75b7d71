#include "smt/backend.hpp"

#include "smt/cdcl_backend.hpp"
#include "smt/portfolio_backend.hpp"
#include "util/error.hpp"
#include "util/fault_injector.hpp"

#if defined(LAR_HAVE_Z3)
#include "smt/z3_backend.hpp"
#endif

namespace lar::smt {

bool haveZ3() {
#if defined(LAR_HAVE_Z3)
    return true;
#else
    return false;
#endif
}

std::unique_ptr<Backend> makeBackend(BackendKind kind, const FormulaStore& store,
                                     const BackendConfig& config, const CdclImage* image) {
    util::FaultInjector::global().maybeFault("backend.construct");
    if (image != nullptr) {
        expects(kind == BackendKind::Cdcl && config.portfolioWorkers <= 1,
                "makeBackend: images clone single-worker CDCL backends only");
        return std::make_unique<CdclBackend>(store, config, *image);
    }
    switch (kind) {
        case BackendKind::Cdcl:
            if (config.portfolioWorkers > 1)
                return std::make_unique<PortfolioBackend>(store, config);
            return std::make_unique<CdclBackend>(store, config);
        case BackendKind::Z3:
#if defined(LAR_HAVE_Z3)
            return std::make_unique<Z3Backend>(store, config);
#else
            (void)config;
            throw LogicError("Z3 backend requested but the build has no libz3");
#endif
    }
    throw LogicError("makeBackend: unknown backend kind");
}

} // namespace lar::smt
