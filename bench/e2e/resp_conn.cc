#include "resp_conn.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace hdnh::e2e {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

std::runtime_error sys_error(const char* what) {
  return std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

RespConn::RespConn(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw sys_error("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::runtime_error err = sys_error("connect");
    ::close(fd_);
    throw err;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

RespConn::~RespConn() {
  if (fd_ >= 0) ::close(fd_);
}

void RespConn::append_bulk(std::string_view s) {
  const std::string len = "$" + std::to_string(s.size()) + "\r\n";
  out_.append(len);
  out_.append(s);
  out_.append("\r\n");
}

void RespConn::queue_get(std::string_view key) {
  out_.append("*2\r\n$3\r\nGET\r\n");
  append_bulk(key);
}

void RespConn::queue_set(std::string_view key, std::string_view value) {
  out_.append("*3\r\n$3\r\nSET\r\n");
  append_bulk(key);
  append_bulk(value);
}

void RespConn::send_some() {
  while (!out_.empty()) {
    const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
    if (n > 0) {
      out_.consume(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    throw sys_error("send");
  }
}

void RespConn::recv_some() {
  for (;;) {
    if (in_.size() - tail_ < kReadChunk) {
      if (head_ > 0) {
        std::memmove(in_.data(), in_.data() + head_, tail_ - head_);
        tail_ -= head_;
        head_ = 0;
      }
      if (in_.size() - tail_ < kReadChunk) in_.resize(tail_ + 2 * kReadChunk);
    }
    const size_t room = in_.size() - tail_;
    const ssize_t n = ::recv(fd_, in_.data() + tail_, room, 0);
    if (n > 0) {
      tail_ += static_cast<size_t>(n);
      if (static_cast<size_t>(n) < room) return;
      continue;
    }
    if (n == 0) throw std::runtime_error("server closed the connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    throw sys_error("recv");
  }
}

void RespConn::wait_readable(int timeout_ms) {
  pollfd p{fd_, POLLIN, 0};
  for (;;) {
    const int r = ::poll(&p, 1, timeout_ms);
    if (r > 0) return;
    if (r == 0) throw std::runtime_error("no reply within the deadline");
    if (errno != EINTR) throw sys_error("poll");
  }
}

bool RespConn::next_reply(net::RespValue* out) {
  size_t consumed = 0;
  std::string err;
  switch (net::parse_value(in_.data() + head_, tail_ - head_, &consumed, out,
                           &err)) {
    case net::ParseResult::kOk:
      head_ += consumed;
      return true;
    case net::ParseResult::kNeedMore:
      return false;
    case net::ParseResult::kError:
      break;
  }
  throw std::runtime_error("malformed reply: " + err);
}

}  // namespace hdnh::e2e
