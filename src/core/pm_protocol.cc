#include "core/pm_protocol.h"

namespace secmed {

Result<Relation> PmJoinProtocol::Run(const std::string& sql,
                                     ProtocolContext* ctx) {
  SECMED_ASSIGN_OR_RETURN(RequestState state, RunRequestPhase(sql, ctx));

  // Steps 2-8: the private-matching round; each join value carries its
  // tuple set, sealed under a session key in the footnote-2 mode.
  PmRound round;
  round.seal_schema = true;
  round.session_keys = options_.session_key_payloads;
  round.coeffs_kind = "pm.coeffs";
  round.evaluate_kind = "pm.evaluate";
  round.result_type = "pm_result";
  round.attach = [](uint8_t, const Bytes&, const Relation& tuples,
                    RandomSource*) -> Result<Bytes> {
    return tuples.Serialize();
  };
  SECMED_ASSIGN_OR_RETURN(PmOpened opened, RunPmRound(state, round, ctx));
  last_evaluation_count_ = opened.evaluations;

  // The client combines the tuple sets of every matched join value.
  SECMED_ASSIGN_OR_RETURN(
      Schema joined_schema,
      JoinedSchema(opened.schema1, opened.schema2,
                   state.plan.join_attributes));
  SECMED_ASSIGN_OR_RETURN(
      std::vector<size_t> j2,
      JoinColumnIndexes(opened.schema2, state.plan.join_attributes));
  Relation result(joined_schema);
  for (const PmMatch& m : opened.matches) {
    SECMED_ASSIGN_OR_RETURN(Relation tup1, Relation::Deserialize(m.payload1));
    SECMED_ASSIGN_OR_RETURN(Relation tup2, Relation::Deserialize(m.payload2));
    AppendJoinedCrossProduct(tup1, tup2, j2, &result);
  }
  return result;
}

}  // namespace secmed
