#ifndef SECMED_CORE_DAS_PROTOCOL_H_
#define SECMED_CORE_DAS_PROTOCOL_H_

#include "core/protocol.h"
#include "das/partition.h"

namespace secmed {

/// Placement of the DAS query translator (Section 3.1): "In principle, it
/// is possible to place the DAS query translator in any layer of the
/// mediation system. We call the resulting settings mediator setting,
/// source setting and client setting." The paper details only the client
/// setting; this library implements all three:
///
///  - kClient (default, Listing 2): index tables travel encrypted to the
///    client, which builds qS. The mediator never sees partition ranges.
///  - kSource: datasource S2 receives S1's index table and runs the
///    translator; the mediator still sees no ranges, the client saves one
///    round (interacts once), but the *sources* learn each other's
///    partition ranges.
///  - kMediator: the index tables reach the mediator in the clear and it
///    translates itself — the fastest setting, but exactly what Section 6
///    warns about: "the mediator would know the partition ranges and thus
///    be able to approximate the join attribute value for each tuple."
enum class DasTranslatorSetting { kClient, kSource, kMediator };

const char* DasTranslatorSettingToString(DasTranslatorSetting s);

/// Options of the DAS delivery phase.
struct DasProtocolOptions {
  /// How the datasources partition domactive(Ajoin).
  PartitionStrategy strategy = PartitionStrategy::kEquiDepth;
  /// Target number of partitions (ignored for kSingleton). Fewer
  /// partitions → larger superset at the client but less inference
  /// exposure at the mediator (Section 6).
  size_t num_partitions = 4;
  /// Where the query translator runs (see DasTranslatorSetting).
  DasTranslatorSetting translator = DasTranslatorSetting::kClient;
};

/// Secure mediation with the database-as-a-service model, client setting
/// (Section 3.1, Listing 2).
///
/// Delivery phase:
///  1. Each Si partitions domactive(Ajoin) into ITable_Ri.Ajoin.
///  2. Si draws one etuple key, DAS-encrypts Ri under it (etuples + index
///     values) and encrypts the key and the index table so only the
///     client can read them.
///  3. Si sends <RiS, encrypt(key, ITable)> to the mediator.
///  4. The mediator forwards the encrypted blobs to the client.
///  5. The client decrypts them and translates q into the server query qS
///     (overlapping partition pairs) and client query qC.
///  6. The mediator evaluates qS over R1S × R2S and returns RC: each etuple
///     of RC once, then RC's pairs as positions (DasServerResult).
///  7. The client opens each etuple once and applies qC to the pairs,
///     yielding the global result.
///
/// The client receives a *superset* of the global result; the mediator
/// learns |Ri| and |RC| but no plaintext (Table 1).
class DasJoinProtocol : public JoinProtocol {
 public:
  explicit DasJoinProtocol(DasProtocolOptions options = {})
      : options_(options) {}

  std::string name() const override { return "das"; }

  Result<Relation> Run(const std::string& sql, ProtocolContext* ctx) override;

  /// Size of the server result RC of the last run — the superset the
  /// client had to post-process (reported next to the true result size by
  /// the benchmarks).
  size_t last_server_result_size() const { return last_server_result_size_; }

 private:
  DasProtocolOptions options_;
  size_t last_server_result_size_ = 0;
};

}  // namespace secmed

#endif  // SECMED_CORE_DAS_PROTOCOL_H_
