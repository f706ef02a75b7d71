// Golden wire tests: the exact bytes larserved and `larctl batch` answer.
//
// A fixed sequence of requests goes through the production route handlers
// (serve::register*Routes on an in-process HttpServer bound to 127.0.0.1)
// and through the larctl binary; each response is compared byte for byte
// with a file under tests/golden/. Warm starting is off, the backend is
// CDCL with the default seed, and batches run on one worker, so designs,
// solver counters and cache outcomes are deterministic. Only values that
// legitimately vary between runs are masked before the comparison:
// `trace_id` and the timing fields of the trace (wall-clock milliseconds,
// span timestamps, and the sampled propagation rate).
//
// To regenerate the files after an intentional wire change:
//   LAR_UPDATE_GOLDEN=1 ./build/tests/golden_test
// and review the diff — the point of these files is that a refactor does
// not change them.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <regex>
#include <string>
#include <sys/wait.h>

#include "catalog/catalog.hpp"
#include "json/parse.hpp"
#include "net/http_client.hpp"
#include "net/server.hpp"
#include "reason/service.hpp"
#include "reason/session.hpp"
#include "serve/routes.hpp"
#include "util/file.hpp"

using namespace lar;

namespace {

const std::string kGoldenDir = LAR_GOLDEN_DIR;

/// Replaces the value of every run-dependent field with "*".
std::string mask(const std::string& text) {
    static const std::regex kVarying(
        R"re("(trace_id|compile_ms|solve_ms|total_ms|queue_wait_ms|cancel_ms|)re"
        R"re(time_ms|start_ms|dur_ms|at_ms|elapsed_ms|propagations_per_sec)"(\s*):(\s*)("[^"]*"|[-+0-9.eE]+))re");
    return std::regex_replace(text, kVarying, R"("$1"$2:$3"*")");
}

/// Compares `actual` (masked) with tests/golden/<name>, or rewrites the file
/// when LAR_UPDATE_GOLDEN is set.
void expectGolden(const std::string& name, const std::string& actual) {
    const std::string path = kGoldenDir + "/" + name;
    const std::string masked = mask(actual);
    if (std::getenv("LAR_UPDATE_GOLDEN") != nullptr) {
        util::writeFile(path, masked);
        return;
    }
    EXPECT_EQ(masked, util::readFile(path)) << "golden mismatch: " << path;
}

/// Status line plus body: the status code is part of the contract.
std::string wire(const net::ClientResponse& resp) {
    return "HTTP " + std::to_string(resp.status) + "\n" + resp.body;
}

const std::string kProblem =
    R"({"hardware":{"server":{"count":60},"switch":{"count":8},)"
    R"("nic":{"count":60}},"objective_priority":["latency","hardware_cost"],)"
    R"("required_capabilities":["detect_queue_length"]})";

const std::string kUnsatProblem =
    R"({"hardware":{"server":{"count":60},"switch":{"count":8},)"
    R"("nic":{"count":60}},"objective_priority":["latency"],)"
    R"("max_hardware_cost_usd":1000})";

std::string query(const std::string& kind, const std::string& problem,
                  const std::string& extra = "") {
    return R"({"api":1,"id":")" + kind + R"(","kind":")" + kind +
           R"(","problem":)" + problem + extra + "}";
}

class GoldenWireTest : public ::testing::Test {
protected:
    GoldenWireTest()
        : kb_(catalog::buildKnowledgeBase()), service_(serviceOptions()),
          sessions_(service_), server_(serverOptions()) {
        serve::registerServiceRoutes(server_, service_, kb_);
        serve::registerSessionRoutes(server_, sessions_, kb_);
        server_.start();
        client_ = std::make_unique<net::HttpClient>("127.0.0.1",
                                                    server_.port());
    }
    ~GoldenWireTest() override {
        client_.reset();
        server_.stop();
    }

    static reason::ServiceOptions serviceOptions() {
        reason::ServiceOptions options;
        options.workers = 1;
        options.warmStartCapacity = 0; // warm starts may pick other models
        return options;
    }
    static net::ServerOptions serverOptions() {
        net::ServerOptions options;
        options.bindAddress = "127.0.0.1";
        options.port = 0;
        options.accessLog = false;
        return options;
    }

    kb::KnowledgeBase kb_;
    reason::Service service_;
    reason::SessionManager sessions_;
    net::HttpServer server_;
    std::unique_ptr<net::HttpClient> client_;
};

TEST_F(GoldenWireTest, QueryAllKinds) {
    expectGolden("query_feasible.txt",
                 wire(client_->post("/v1/query", query("feasible", kProblem))));
    expectGolden("query_explain_sat.txt",
                 wire(client_->post("/v1/query", query("explain", kProblem))));
    expectGolden("query_synthesize.txt",
                 wire(client_->post("/v1/query", query("synthesize", kProblem))));
    expectGolden("query_optimize.txt",
                 wire(client_->post("/v1/query", query("optimize", kProblem))));
    expectGolden("query_enumerate.txt",
                 wire(client_->post("/v1/query", query("enumerate", kProblem,
                                                       R"(,"max_designs":3)"))));
    expectGolden("query_explain_unsat.txt",
                 wire(client_->post("/v1/query",
                                    query("explain", kUnsatProblem))));
}

TEST_F(GoldenWireTest, SessionAsks) {
    const net::ClientResponse created = client_->post(
        "/v1/session", R"({"api":1,"problem":)" + kProblem + "}");
    ASSERT_EQ(created.status, 200) << created.body;
    const std::string id = json::parse(created.body).at("id").asString();
    const std::string ask = "/v1/session/" + id + "/ask";

    expectGolden("ask_sat.txt",
                 wire(client_->post(ask, R"({"api":1,"systems":{"Sonata":true}})")));
    expectGolden("ask_unsat.txt",
                 wire(client_->post(
                     ask, R"({"api":1,"hardware":{"switch":"Cisco Catalyst 9500-40X"}})")));
    expectGolden("ask_unknown_names.txt",
                 wire(client_->post(
                     ask, R"({"api":1,"systems":{"Ghost":true},"options":{"phantom_opt":true}})")));
}

TEST(GoldenLarctl, BatchStdout) {
    const std::string command = std::string(LAR_LARCTL) + " batch builtin " +
                                kGoldenDir + "/batch_input.json 1";
    FILE* pipe = ::popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
    const int status = ::pclose(pipe);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1) << "the batch holds one unsat query";
    expectGolden("batch_stdout.txt", out);
}

} // namespace
