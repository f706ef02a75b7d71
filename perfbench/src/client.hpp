// Minimal blocking HTTP/1.1 client over one keep-alive TCP connection.
//
// The benchmark's load generator: it sends one request, reads the whole
// response, and only then sends the next (a closed loop). It is written
// here rather than taken from src/net so that a change to the repository's
// own client can never change what the benchmark measures.
#pragma once

#include <string>
#include <string_view>

namespace perfbench {

struct HttpReply {
    int status = 0;
    std::string body;
};

class HttpConnection {
public:
    /// Connects to 127.0.0.1:`port`. Throws std::runtime_error on failure.
    explicit HttpConnection(int port);
    ~HttpConnection();
    HttpConnection(const HttpConnection&) = delete;
    HttpConnection& operator=(const HttpConnection&) = delete;

    /// Sends one request and reads its complete response. Throws
    /// std::runtime_error when the connection fails or the response is
    /// malformed (the connection is then unusable).
    HttpReply request(std::string_view method, std::string_view path,
                      std::string_view body = {});

private:
    int fd_ = -1;
    std::string buf_; ///< bytes read past the previous response
};

} // namespace perfbench
