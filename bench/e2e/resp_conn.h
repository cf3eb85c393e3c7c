// A non-blocking RESP connection for the benchmark's load generator.
//
// net::Client blocks in read_reply(), which an open-loop generator cannot
// afford: it must send on schedule while replies are still outstanding.
// RespConn separates the three steps — queue a request, push queued bytes,
// pull whatever replies have arrived — and never blocks unless asked to
// (wait_readable). Replies come back in request order, so the caller keeps
// its own FIFO of what each outstanding request was.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/buffer.h"
#include "net/resp.h"

namespace hdnh::e2e {

class RespConn {
 public:
  // Connects to 127.0.0.1:port; throws std::runtime_error on failure.
  explicit RespConn(uint16_t port);
  ~RespConn();
  RespConn(const RespConn&) = delete;
  RespConn& operator=(const RespConn&) = delete;

  void queue_get(std::string_view key);
  void queue_set(std::string_view key, std::string_view value);

  // Sends as many queued bytes as the socket takes now. Throws when the
  // connection is lost.
  void send_some();
  bool unsent() const { return !out_.empty(); }
  // Reads whatever has arrived. Throws on EOF or a socket error.
  void recv_some();
  // Blocks until the socket is readable or `timeout_ms` passes; throws on
  // timeout (a wedged server fails the run instead of hanging it).
  void wait_readable(int timeout_ms);
  // Pops the next complete reply; false when none is buffered. Throws on a
  // malformed reply.
  bool next_reply(net::RespValue* out);

 private:
  void append_bulk(std::string_view s);

  int fd_ = -1;
  net::IoBuffer out_;
  // Received bytes live in in_[head_, tail_). The vector only grows, so a
  // recv that finds nothing costs one syscall and no buffer work.
  std::vector<char> in_;
  size_t head_ = 0;
  size_t tail_ = 0;
};

}  // namespace hdnh::e2e
