// HTTP/1.1 parser tests: the malformed-input table, incremental feeding,
// pipelining, and limit enforcement. The parser is larserved's security
// boundary, so every rejection must map to the right 4xx/5xx and no input —
// truncated, oversized, or adversarial — may hang or overrun a limit.
#include "net/http.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.hpp"

using namespace lar;
using net::HttpParser;
using net::HttpRequest;

namespace {

/// Feeds the whole string at once; returns the final status.
HttpParser::Status feed(HttpParser& parser, const std::string& data,
                        std::size_t* used = nullptr) {
    std::size_t n = 0;
    const HttpParser::Status status = parser.consume(data, n);
    if (used != nullptr) *used = n;
    return status;
}

TEST(HttpParser, ParsesSimpleGet) {
    HttpParser parser;
    EXPECT_EQ(feed(parser, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
              HttpParser::Status::Complete);
    const HttpRequest& req = parser.request();
    EXPECT_EQ(req.method, "GET");
    EXPECT_EQ(req.target, "/healthz");
    EXPECT_EQ(req.path(), "/healthz");
    EXPECT_EQ(req.versionMinor, 1);
    EXPECT_TRUE(req.keepAlive);
    ASSERT_NE(req.header("host"), nullptr); // case-insensitive
    EXPECT_EQ(*req.header("HOST"), "x");
    EXPECT_TRUE(req.body.empty());
}

TEST(HttpParser, ParsesPostWithContentLength) {
    HttpParser parser;
    EXPECT_EQ(feed(parser,
                   "POST /v1/query HTTP/1.1\r\nContent-Length: 11\r\n\r\n"
                   "{\"id\":\"q\"}\n"),
              HttpParser::Status::Complete);
    EXPECT_EQ(parser.request().body, "{\"id\":\"q\"}\n");
}

TEST(HttpParser, ParsesChunkedBody) {
    HttpParser parser;
    EXPECT_EQ(feed(parser,
                   "POST /v1/query HTTP/1.1\r\n"
                   "Transfer-Encoding: chunked\r\n\r\n"
                   "5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n"),
              HttpParser::Status::Complete);
    EXPECT_EQ(parser.request().body, "hello world");
}

TEST(HttpParser, ChunkedWithTrailersIsConsumed) {
    HttpParser parser;
    EXPECT_EQ(feed(parser,
                   "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                   "3\r\nabc\r\n0\r\nX-Checksum: 9\r\n\r\n"),
              HttpParser::Status::Complete);
    EXPECT_EQ(parser.request().body, "abc");
}

TEST(HttpParser, PathStripsQueryString) {
    HttpParser parser;
    ASSERT_EQ(feed(parser, "GET /metrics?format=prom HTTP/1.1\r\n\r\n"),
              HttpParser::Status::Complete);
    EXPECT_EQ(parser.request().target, "/metrics?format=prom");
    EXPECT_EQ(parser.request().path(), "/metrics");
}

TEST(HttpParser, Http10DefaultsToClose) {
    HttpParser parser;
    ASSERT_EQ(feed(parser, "GET / HTTP/1.0\r\n\r\n"),
              HttpParser::Status::Complete);
    EXPECT_FALSE(parser.request().keepAlive);

    parser.reset();
    ASSERT_EQ(feed(parser, "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
              HttpParser::Status::Complete);
    EXPECT_TRUE(parser.request().keepAlive);
}

TEST(HttpParser, ConnectionCloseNegotiated) {
    HttpParser parser;
    ASSERT_EQ(feed(parser, "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"),
              HttpParser::Status::Complete);
    EXPECT_FALSE(parser.request().keepAlive);
}

TEST(HttpParser, ExpectContinueDetected) {
    HttpParser parser;
    ASSERT_EQ(feed(parser,
                   "POST / HTTP/1.1\r\nExpect: 100-continue\r\n"
                   "Content-Length: 2\r\n\r\nok"),
              HttpParser::Status::Complete);
    EXPECT_TRUE(parser.request().expectContinue);
}

TEST(HttpParser, BareLfLineEndingsAccepted) {
    HttpParser parser;
    EXPECT_EQ(feed(parser, "GET / HTTP/1.1\nHost: x\n\n"),
              HttpParser::Status::Complete);
}

// --- incremental feeding ---------------------------------------------------

TEST(HttpParser, ByteAtATimeProducesSameRequest) {
    const std::string wire =
        "POST /v1/batch HTTP/1.1\r\nContent-Length: 5\r\n"
        "X-Trace: yes\r\n\r\nhello";
    HttpParser parser;
    HttpParser::Status status = HttpParser::Status::NeedMore;
    for (std::size_t i = 0; i < wire.size(); ++i) {
        std::size_t used = 0;
        status = parser.consume(std::string_view(&wire[i], 1), used);
        if (i + 1 < wire.size()) {
            ASSERT_EQ(status, HttpParser::Status::NeedMore) << "at byte " << i;
            ASSERT_EQ(used, 1u);
        }
    }
    ASSERT_EQ(status, HttpParser::Status::Complete);
    EXPECT_EQ(parser.request().body, "hello");
    EXPECT_EQ(*parser.request().header("x-trace"), "yes");
}

TEST(HttpParser, CrlfSplitAcrossFeeds) {
    HttpParser parser;
    std::size_t used = 0;
    ASSERT_EQ(parser.consume("GET / HTTP/1.1\r", used),
              HttpParser::Status::NeedMore);
    ASSERT_EQ(parser.consume("\nHost: x\r", used), HttpParser::Status::NeedMore);
    ASSERT_EQ(parser.consume("\n\r", used), HttpParser::Status::NeedMore);
    ASSERT_EQ(parser.consume("\n", used), HttpParser::Status::Complete);
}

TEST(HttpParser, PipelinedRequestsReportUsedBytes) {
    const std::string two =
        "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
    HttpParser parser;
    std::size_t used = 0;
    ASSERT_EQ(parser.consume(two, used), HttpParser::Status::Complete);
    EXPECT_EQ(parser.request().target, "/a");
    EXPECT_LT(used, two.size()); // second request untouched

    parser.reset();
    std::size_t used2 = 0;
    ASSERT_EQ(parser.consume(std::string_view(two).substr(used), used2),
              HttpParser::Status::Complete);
    EXPECT_EQ(parser.request().target, "/b");
    EXPECT_EQ(used + used2, two.size());
}

TEST(HttpParser, ConsumeAfterCompleteThrows) {
    HttpParser parser;
    ASSERT_EQ(feed(parser, "GET / HTTP/1.1\r\n\r\n"),
              HttpParser::Status::Complete);
    std::size_t used = 0;
    EXPECT_THROW((void)parser.consume("GET", used), LogicError);
}

TEST(HttpParser, ResetReusesParser) {
    HttpParser parser;
    ASSERT_EQ(feed(parser, "GET /a HTTP/1.1\r\n\r\n"),
              HttpParser::Status::Complete);
    parser.reset();
    EXPECT_FALSE(parser.begun());
    ASSERT_EQ(feed(parser, "POST /b HTTP/1.1\r\nContent-Length: 1\r\n\r\nZ"),
              HttpParser::Status::Complete);
    EXPECT_EQ(parser.request().method, "POST");
    EXPECT_EQ(parser.request().body, "Z");
    EXPECT_EQ(parser.request().headers.size(), 1u); // old headers cleared
}

// --- malformed-input table -------------------------------------------------

struct MalformedCase {
    const char* name;
    std::string wire;
    int wantStatus;
};

// Print a case by its name. Without this gtest dumps the struct's raw bytes
// into the listed test name, and those hold the name pointer, which changes
// from run to run.
void PrintTo(const MalformedCase& c, std::ostream* os) { *os << c.name; }

class HttpParserMalformed : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(HttpParserMalformed, RejectsWithExpectedStatus) {
    const MalformedCase& c = GetParam();
    HttpParser parser;
    std::size_t used = 0;
    const HttpParser::Status status = parser.consume(c.wire, used);
    ASSERT_EQ(status, HttpParser::Status::Failed) << c.name;
    EXPECT_EQ(parser.errorStatus(), c.wantStatus) << c.name;
    EXPECT_FALSE(parser.errorReason().empty()) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Table, HttpParserMalformed,
    ::testing::Values(
        MalformedCase{"missing_version", "GET /\r\n\r\n", 400},
        MalformedCase{"three_spaces", "GET / index HTTP/1.1\r\n\r\n", 400},
        MalformedCase{"bad_method_char", "G@T / HTTP/1.1\r\n\r\n", 400},
        MalformedCase{"lowercase_proto", "GET / http/1.1\r\n\r\n", 505},
        MalformedCase{"http2", "GET / HTTP/2.0\r\n\r\n", 505},
        MalformedCase{"http09", "GET / HTTP/0.9\r\n\r\n", 505},
        MalformedCase{"header_no_colon", "GET / HTTP/1.1\r\nHostx\r\n\r\n",
                      400},
        MalformedCase{"header_space_before_colon",
                      "GET / HTTP/1.1\r\nHost : x\r\n\r\n", 400},
        MalformedCase{"header_folding",
                      "GET / HTTP/1.1\r\nA: 1\r\n  folded\r\n\r\n", 400},
        MalformedCase{"ctl_in_header_value",
                      std::string("GET / HTTP/1.1\r\nA: b\x01") + "c\r\n\r\n",
                      400},
        MalformedCase{"bare_cr_in_line", "GET / HTTP/1.1\r\nA: b\rc\r\n\r\n",
                      400},
        MalformedCase{"negative_content_length",
                      "POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400},
        MalformedCase{"non_numeric_content_length",
                      "POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400},
        MalformedCase{"dual_content_length",
                      "POST / HTTP/1.1\r\nContent-Length: 2\r\n"
                      "Content-Length: 3\r\n\r\n",
                      400},
        MalformedCase{"te_plus_content_length",
                      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
                      "Content-Length: 5\r\n\r\n",
                      400},
        MalformedCase{"unsupported_te",
                      "POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
                      501},
        MalformedCase{"bad_chunk_size",
                      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                      "zz\r\n",
                      400},
        MalformedCase{"chunk_data_missing_crlf",
                      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                      "3\r\nabcXX\r\n",
                      400}));

TEST(HttpParserLimits, OversizedRequestLineIs431) {
    net::HttpLimits limits;
    limits.maxRequestLineBytes = 64;
    HttpParser parser(limits);
    const std::string wire =
        "GET /" + std::string(200, 'a') + " HTTP/1.1\r\n\r\n";
    ASSERT_EQ(feed(parser, wire), HttpParser::Status::Failed);
    EXPECT_EQ(parser.errorStatus(), 431);
}

TEST(HttpParserLimits, OversizedHeaderBlockIs431) {
    net::HttpLimits limits;
    limits.maxHeaderBytes = 128;
    HttpParser parser(limits);
    std::string wire = "GET / HTTP/1.1\r\n";
    for (int i = 0; i < 16; ++i) {
        wire += "X-Pad-" + std::to_string(i) + ": " + std::string(32, 'p') +
                "\r\n";
    }
    wire += "\r\n";
    ASSERT_EQ(feed(parser, wire), HttpParser::Status::Failed);
    EXPECT_EQ(parser.errorStatus(), 431);
}

TEST(HttpParserLimits, TooManyHeadersIs431) {
    net::HttpLimits limits;
    limits.maxHeaders = 4;
    HttpParser parser(limits);
    std::string wire = "GET / HTTP/1.1\r\n";
    for (int i = 0; i < 8; ++i) wire += "H" + std::to_string(i) + ": v\r\n";
    wire += "\r\n";
    ASSERT_EQ(feed(parser, wire), HttpParser::Status::Failed);
    EXPECT_EQ(parser.errorStatus(), 431);
}

TEST(HttpParserLimits, ContentLengthOverBodyLimitIs413) {
    net::HttpLimits limits;
    limits.maxBodyBytes = 100;
    HttpParser parser(limits);
    ASSERT_EQ(feed(parser, "POST / HTTP/1.1\r\nContent-Length: 101\r\n\r\n"),
              HttpParser::Status::Failed);
    EXPECT_EQ(parser.errorStatus(), 413);
}

TEST(HttpParserLimits, ChunkedBodyOverLimitIs413) {
    net::HttpLimits limits;
    limits.maxBodyBytes = 8;
    HttpParser parser(limits);
    ASSERT_EQ(feed(parser,
                   "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                   "6\r\nabcdef\r\n6\r\nghijkl\r\n"),
              HttpParser::Status::Failed);
    EXPECT_EQ(parser.errorStatus(), 413);
}

// A truncated request must stay NeedMore forever (the server's idle timeout
// reaps it) — never Complete, never a hang inside consume().
TEST(HttpParser, TruncatedInputsStayIncomplete) {
    const std::vector<std::string> prefixes = {
        "G", "GET ", "GET /x", "GET /x HTTP/1.1", "GET /x HTTP/1.1\r",
        "GET /x HTTP/1.1\r\n", "GET /x HTTP/1.1\r\nHost: a",
        "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf",
        "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab"};
    for (const std::string& prefix : prefixes) {
        HttpParser parser;
        std::size_t used = 0;
        EXPECT_EQ(parser.consume(prefix, used), HttpParser::Status::NeedMore)
            << "prefix: " << prefix;
        EXPECT_EQ(used, prefix.size());
    }
}

// --- response serialization ------------------------------------------------

TEST(HttpResponse, SerializesWithLengthAndConnection) {
    net::HttpResponse resp;
    resp.status = 200;
    resp.body = "{}";
    std::string out;
    net::serializeResponse(resp, /*keepAlive=*/true, out);
    EXPECT_NE(out.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
    EXPECT_NE(out.find("Content-Length: 2\r\n"), std::string::npos);
    EXPECT_NE(out.find("Connection: keep-alive\r\n"), std::string::npos);
    EXPECT_EQ(out.substr(out.size() - 6), "\r\n\r\n{}");

    out.clear();
    net::serializeResponse(resp, /*keepAlive=*/false, out);
    EXPECT_NE(out.find("Connection: close\r\n"), std::string::npos);
}

TEST(HttpResponse, ErrorJsonEscapesMessage) {
    const net::HttpResponse resp =
        net::HttpResponse::errorJson(400, "bad_request", "tab\there \"quoted\"");
    EXPECT_NE(resp.body.find("tab\\there \\\"quoted\\\""), std::string::npos);
}

TEST(HttpMisc, ReasonPhrases) {
    EXPECT_STREQ(net::reasonPhrase(200), "OK");
    EXPECT_STREQ(net::reasonPhrase(429), "Too Many Requests");
    EXPECT_STREQ(net::reasonPhrase(431),
                 "Request Header Fields Too Large");
    EXPECT_STREQ(net::reasonPhrase(503), "Service Unavailable");
}

} // namespace
