#include "tcp/socket.hh"

#include <bit>

namespace fsim
{

const char *
tcpStateName(TcpState s)
{
    switch (s) {
      case TcpState::kClosed:
        return "CLOSED";
      case TcpState::kListen:
        return "LISTEN";
      case TcpState::kSynSent:
        return "SYN_SENT";
      case TcpState::kSynRcvd:
        return "SYN_RCVD";
      case TcpState::kEstablished:
        return "ESTABLISHED";
      case TcpState::kFinWait1:
        return "FIN_WAIT1";
      case TcpState::kFinWait2:
        return "FIN_WAIT2";
      case TcpState::kCloseWait:
        return "CLOSE_WAIT";
      case TcpState::kLastAck:
        return "LAST_ACK";
      case TcpState::kTimeWait:
        return "TIME_WAIT";
    }
    return "?";
}

ListenState &
Socket::becomeListener(IpAddr addr, Port port)
{
    kind = SockKind::kListen;
    state = TcpState::kListen;
    listen = std::make_unique<ListenState>();
    listen->bindAddr = addr;
    listen->bindPort = port;
    return *listen;
}

int
Socket::touchedCount() const
{
    return std::popcount(coresTouched);
}

} // namespace fsim
