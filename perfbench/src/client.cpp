#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("http client: " + what + ": " +
                             std::strerror(errno));
}

bool iequalsPrefix(std::string_view line, std::string_view name) {
    if (line.size() < name.size()) return false;
    for (std::size_t i = 0; i < name.size(); ++i) {
        const char a = line[i] >= 'A' && line[i] <= 'Z'
                           ? static_cast<char>(line[i] - 'A' + 'a')
                           : line[i];
        if (a != name[i]) return false;
    }
    return true;
}

} // namespace

HttpConnection::HttpConnection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) fail("socket");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
        ::close(fd_);
        fd_ = -1;
        fail("connect");
    }
}

HttpConnection::~HttpConnection() {
    if (fd_ >= 0) ::close(fd_);
}

HttpReply HttpConnection::request(std::string_view method,
                                  std::string_view path,
                                  std::string_view body) {
    std::string out;
    out.reserve(128 + body.size());
    out.append(method).append(" ").append(path).append(
        " HTTP/1.1\r\nHost: 127.0.0.1\r\n");
    if (!body.empty() || method == "POST") {
        out.append("Content-Type: application/json\r\nContent-Length: ")
            .append(std::to_string(body.size()))
            .append("\r\n");
    }
    out.append("\r\n").append(body);
    for (std::size_t sent = 0; sent < out.size();) {
        const ssize_t n =
            ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            fail("send");
        }
        sent += static_cast<std::size_t>(n);
    }

    char chunk[16384];
    const auto readMore = [&] {
        while (true) {
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n > 0) {
                buf_.append(chunk, static_cast<std::size_t>(n));
                return;
            }
            if (n == 0) {
                errno = ECONNRESET;
                fail("peer closed");
            }
            if (errno != EINTR) fail("recv");
        }
    };

    std::size_t headerEnd;
    while ((headerEnd = buf_.find("\r\n\r\n")) == std::string::npos) readMore();

    HttpReply reply;
    const std::string_view head(buf_.data(), headerEnd);
    if (head.size() < 12 || head.substr(0, 5) != "HTTP/")
        throw std::runtime_error("http client: malformed status line");
    reply.status = std::stoi(std::string(head.substr(9, 3)));
    std::size_t contentLength = 0;
    bool haveLength = false;
    for (std::size_t pos = head.find("\r\n"); pos != std::string_view::npos;) {
        const std::size_t next = head.find("\r\n", pos + 2);
        const std::string_view line = head.substr(
            pos + 2, next == std::string_view::npos ? std::string_view::npos
                                                     : next - pos - 2);
        if (iequalsPrefix(line, "content-length:")) {
            contentLength = std::stoul(std::string(line.substr(15)));
            haveLength = true;
        } else if (iequalsPrefix(line, "transfer-encoding:")) {
            throw std::runtime_error("http client: chunked body unsupported");
        }
        pos = next;
    }
    if (!haveLength)
        throw std::runtime_error("http client: response without Content-Length");

    const std::size_t bodyStart = headerEnd + 4;
    while (buf_.size() < bodyStart + contentLength) readMore();
    reply.body = buf_.substr(bodyStart, contentLength);
    buf_.erase(0, bodyStart + contentLength);
    return reply;
}

} // namespace perfbench
