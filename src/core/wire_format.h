// Wire-format selection for federated interchange.
//
// Two encodings can cross the simulated wire: the legacy textual
// s-expression form (human-readable, accepted by every peer) and NXB1, the
// binary columnar form (core/serialize.h). Endpoints advertise what they
// accept; each link settles on the newest format both ends speak
// (Transport::NegotiatedFormat), so a cluster with one legacy peer keeps
// working, and a cluster whose servers are all marked text-only
// (Transport::SetNodeBinaryCapable) speaks text on every link.
#ifndef NEXUS_CORE_WIRE_FORMAT_H_
#define NEXUS_CORE_WIRE_FORMAT_H_

namespace nexus {

enum class WireFormat : int {
  kText = 0,    ///< s-expression wire (every peer accepts this)
  kBinary = 1,  ///< NXB1 binary columnar blocks
};

const char* WireFormatName(WireFormat f);

}  // namespace nexus

#endif  // NEXUS_CORE_WIRE_FORMAT_H_
