// Safety under misbehaviour (§4.1/§4.4, experiment E7).
//
// "mallory" is a properly-keyed member whose endpoint the test takes over,
// so she can emit arbitrary signed protocol messages — every subversion
// class the paper analyses: tampered/inconsistent content, null
// transitions, replay, selective sending, omission of responses (to
// misrepresent a veto), forged decide messages. The invariant checked
// throughout: honest parties never install invalid state, and they record
// violation evidence.
//
// The Safety suite runs over both runtimes (mallory hijacks the abstract
// transport, which works identically on the simulator and on real
// threads); the Dolev-Yao intruder tests stay simulator-only because they
// splice into the raw datagram fabric.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>

#include "b2b/federation.hpp"
#include "common/error.hpp"
#include "tests/support/runtime_param.hpp"
#include "tests/support/test_objects.hpp"

namespace b2b::core {
namespace {

using test::TestRegister;

const ObjectId kObj{"doc"};

/// A fully test-controlled dishonest member. Construction detaches her
/// endpoint from her (honest) coordinator: incoming payloads are captured
/// for the test to inspect, outgoing messages are whatever the test crafts.
class Mallory {
 public:
  Mallory(Federation& fed, const std::string& name)
      : fed_(fed),
        name_(name),
        id_(name),
        key_(fed.keypair(name)),
        rng_(0xbadbadULL) {
    fed_.transport(name_).set_handler(
        [inbox = inbox_](const PartyId& from, const Bytes& payload) {
          std::lock_guard<std::mutex> lock(inbox->mutex);
          inbox->messages.emplace_back(from, payload);
        });
  }

  const PartyId& id() const { return id_; }

  /// Craft a signed overwrite proposal. Callers may tamper with the
  /// returned message before sending.
  ProposeMsg make_proposal(const Replica& view, Bytes new_state,
                           std::uint64_t seq_offset = 1) {
    ProposeMsg msg;
    Proposal& prop = msg.proposal;
    prop.proposer = id_;
    prop.object = kObj;
    prop.group = view.group_tuple();
    prop.agreed = view.agreed_tuple();
    authenticator_ = rng_.bytes(32);
    prop.proposed =
        StateTuple{view.last_seen_sequence() + seq_offset,
                   crypto::Sha256::hash(authenticator_),
                   crypto::Sha256::hash(new_state)};
    prop.is_update = false;
    prop.payload_hash = crypto::Sha256::hash(new_state);
    msg.payload = std::move(new_state);
    sign(msg);
    return msg;
  }

  void sign(ProposeMsg& msg) {
    msg.signature = key_.sign(msg.proposal.signed_bytes());
  }

  void send(const std::string& to, MsgType type, Bytes body) {
    Envelope env;
    env.type = type;
    env.object = kObj;
    env.body = std::move(body);
    fed_.transport(name_).send(PartyId{to}, env.encode());
  }

  /// Responses captured from honest parties, decoded.
  std::vector<RespondMsg> captured_responses() {
    std::lock_guard<std::mutex> lock(inbox_->mutex);
    std::vector<RespondMsg> out;
    for (const auto& [from, payload] : inbox_->messages) {
      Envelope env = Envelope::decode(payload);
      if (env.type == MsgType::kRespond) {
        out.push_back(RespondMsg::decode(env.body));
      }
    }
    return out;
  }

  const Bytes& authenticator() const { return authenticator_; }

 private:
  Federation& fed_;
  std::string name_;
  PartyId id_;
  const crypto::RsaPrivateKey& key_;
  crypto::ChaCha20Rng rng_;
  Bytes authenticator_;
  /// Shared with (and kept alive by) the hijack handler installed in the
  /// transport: delivery threads may still write after Mallory herself is
  /// gone, since the transport outlives her.
  struct Inbox {
    std::mutex mutex;
    std::vector<std::pair<PartyId, Bytes>> messages;
  };
  std::shared_ptr<Inbox> inbox_ = std::make_shared<Inbox>();
};

/// Honest parties bob & carol share the object with mallory.
struct SafetyFixture {
  // Registers are declared before (destroyed after) the federation, so
  // the runtime's delivery threads stop before the objects they write
  // into die.
  TestRegister bob_obj;
  TestRegister carol_obj;
  TestRegister mallory_obj;  // registered, but mallory's transport is hijacked
  Federation fed;
  Mallory mallory{fed, "mallory"};

  explicit SafetyFixture(test::RuntimeLeg leg = test::RuntimeLeg::kSim)
      : fed({"bob", "carol", "mallory"}, test::runtime_options(leg)) {
    fed.register_object("bob", kObj, bob_obj);
    fed.register_object("carol", kObj, carol_obj);
    fed.coordinator("mallory").register_object(kObj, mallory_obj);
    fed.bootstrap_object(kObj, {"bob", "carol", "mallory"},
                         bytes_of("genesis"));
  }

  Replica& bob() { return fed.coordinator("bob").replica(kObj); }
  Replica& carol() { return fed.coordinator("carol").replica(kObj); }

  void expect_no_state_change() {
    EXPECT_EQ(bob_obj.value, bytes_of("genesis"));
    EXPECT_EQ(carol_obj.value, bytes_of("genesis"));
    EXPECT_EQ(bob().agreed_tuple().sequence, 0u);
    EXPECT_EQ(carol().agreed_tuple().sequence, 0u);
  }
};

class Safety : public test::RuntimeParamTest {};

TEST_P(Safety, TamperedPayloadIsRejectedWithViolationEvidence) {
  SafetyFixture t(GetParam());
  ProposeMsg msg = t.mallory.make_proposal(t.bob(), bytes_of("evil"));
  msg.payload = bytes_of("actually-different");  // signed hash now wrong
  t.mallory.send("bob", MsgType::kPropose, msg.encode());
  t.fed.settle();

  auto responses = t.mallory.captured_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].response.decision.accept);
  EXPECT_EQ(responses[0].response.decision.diagnostic,
            "payload integrity failure");
  EXPECT_GE(t.fed.coordinator("bob").violations_detected(), 1u);
  t.expect_no_state_change();
}

TEST_P(Safety, InternallyInconsistentProposalIsRejected) {
  SafetyFixture t(GetParam());
  ProposeMsg msg = t.mallory.make_proposal(t.bob(), bytes_of("evil"));
  // Claim (and sign) a different resulting state hash than the payload's.
  msg.proposal.proposed.state_hash = crypto::Sha256::hash(bytes_of("other"));
  t.mallory.sign(msg);
  t.mallory.send("bob", MsgType::kPropose, msg.encode());
  t.fed.settle();

  auto responses = t.mallory.captured_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].response.decision.accept);
  t.expect_no_state_change();
}

TEST_P(Safety, BadSignatureIsDetectedAndIgnored) {
  SafetyFixture t(GetParam());
  ProposeMsg msg = t.mallory.make_proposal(t.bob(), bytes_of("evil"));
  msg.signature[5] ^= 0xff;
  t.mallory.send("bob", MsgType::kPropose, msg.encode());
  t.fed.settle();
  EXPECT_TRUE(t.mallory.captured_responses().empty());
  EXPECT_GE(t.fed.coordinator("bob").violations_detected(), 1u);
  t.expect_no_state_change();
}

TEST_P(Safety, NullStateTransitionIsRejected) {
  SafetyFixture t(GetParam());
  ProposeMsg msg = t.mallory.make_proposal(t.bob(), bytes_of("genesis"));
  t.mallory.send("bob", MsgType::kPropose, msg.encode());
  t.fed.settle();
  auto responses = t.mallory.captured_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].response.decision.diagnostic,
            "null state transition");
}

TEST_P(Safety, StaleAgreedViewIsRejected) {
  SafetyFixture t(GetParam());
  ProposeMsg msg = t.mallory.make_proposal(t.bob(), bytes_of("evil"));
  msg.proposal.agreed.sequence = 7;  // fabricated agreed view
  msg.proposal.proposed.sequence = 8;
  t.mallory.sign(msg);
  t.mallory.send("bob", MsgType::kPropose, msg.encode());
  t.fed.settle();
  auto responses = t.mallory.captured_responses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].response.decision.diagnostic,
            "inconsistent agreed-state view");
}

TEST_P(Safety, ReplayedProposalIsDetected) {
  SafetyFixture t(GetParam());
  ProposeMsg msg = t.mallory.make_proposal(t.bob(), bytes_of("evil"));
  Bytes body = msg.encode();
  t.mallory.send("bob", MsgType::kPropose, body);
  t.fed.settle();
  std::uint64_t violations_before =
      t.fed.coordinator("bob").violations_detected();
  t.mallory.send("bob", MsgType::kPropose, body);  // protocol-level replay
  t.fed.settle();
  EXPECT_GT(t.fed.coordinator("bob").violations_detected(), violations_before);
  // Only one response was ever produced.
  EXPECT_EQ(t.mallory.captured_responses().size(), 1u);
}

TEST_P(Safety, SelectiveSendingCannotProduceValidDecision) {
  SafetyFixture t(GetParam());
  // Mallory proposes to bob only, never to carol.
  ProposeMsg msg = t.mallory.make_proposal(t.bob(), bytes_of("selective"));
  t.mallory.send("bob", MsgType::kPropose, msg.encode());
  t.fed.settle();
  auto responses = t.mallory.captured_responses();
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].response.decision.accept);  // bob saw nothing odd

  // She then fabricates a decide from bob's response alone.
  DecideMsg decide;
  decide.proposer = t.mallory.id();
  decide.object = kObj;
  decide.proposed = msg.proposal.proposed;
  decide.responses = {responses[0]};
  decide.authenticator = t.mallory.authenticator();
  t.mallory.send("bob", MsgType::kDecide, decide.encode());
  t.fed.settle();

  // Bob detects the missing response from carol and refuses to install.
  EXPECT_EQ(t.bob_obj.value, bytes_of("genesis"));
  EXPECT_GE(t.fed.coordinator("bob").violations_detected(), 1u);
  // Carol holds no trace of the run at all, but bob's evidence shows an
  // active run existed (§4.4: the subset can show the run is active).
  EXPECT_EQ(t.fed.coordinator("carol").violations_detected(), 0u);
}

TEST_P(Safety, VetoCannotBeMisrepresentedAsAgreement) {
  SafetyFixture t(GetParam());
  // Carol's policy vetoes mallory's content; bob accepts it.
  t.carol_obj.policy = [](BytesView proposed, const ValidationContext&) {
    return string_of(proposed) == "evil"
               ? Decision::rejected("evil content")
               : Decision::accepted();
  };
  ProposeMsg msg = t.mallory.make_proposal(t.bob(), bytes_of("evil"));
  t.mallory.send("bob", MsgType::kPropose, msg.encode());
  t.mallory.send("carol", MsgType::kPropose, msg.encode());
  t.fed.settle();
  auto responses = t.mallory.captured_responses();
  ASSERT_EQ(responses.size(), 2u);

  // Mallory builds a decide containing only the accepting response.
  DecideMsg decide;
  decide.proposer = t.mallory.id();
  decide.object = kObj;
  decide.proposed = msg.proposal.proposed;
  for (const auto& r : responses) {
    if (r.response.decision.accept) decide.responses.push_back(r);
  }
  ASSERT_EQ(decide.responses.size(), 1u);
  decide.authenticator = t.mallory.authenticator();
  t.mallory.send("bob", MsgType::kDecide, decide.encode());
  t.mallory.send("carol", MsgType::kDecide, decide.encode());
  t.fed.settle();

  // Neither honest party installs: bob sees carol's response missing;
  // carol additionally sees her own response misrepresented by omission.
  t.expect_no_state_change();
  EXPECT_GE(t.fed.coordinator("bob").violations_detected(), 1u);
  EXPECT_GE(t.fed.coordinator("carol").violations_detected(), 1u);

  // Third-party arbitration over the full evidence reaches the same
  // verdict: the transcript does not show a valid state.
  EvidenceVerifier verifier = t.fed.make_verifier();
  RunTranscript transcript{msg, responses, decide};
  std::vector<PartyId> recipients{PartyId{"bob"}, PartyId{"carol"}};
  VerifiedRun verdict = verifier.verify_state_run(transcript, &recipients);
  EXPECT_FALSE(verdict.agreed);
  ASSERT_EQ(verdict.vetoers.size(), 1u);
  EXPECT_EQ(verdict.vetoers[0], PartyId{"carol"});
}

TEST_P(Safety, ForgedAuthenticatorIsDetected) {
  SafetyFixture t(GetParam());
  ProposeMsg msg = t.mallory.make_proposal(t.bob(), bytes_of("forged"));
  t.mallory.send("bob", MsgType::kPropose, msg.encode());
  t.mallory.send("carol", MsgType::kPropose, msg.encode());
  t.fed.settle();
  auto responses = t.mallory.captured_responses();
  ASSERT_EQ(responses.size(), 2u);

  DecideMsg decide;
  decide.proposer = t.mallory.id();
  decide.object = kObj;
  decide.proposed = msg.proposal.proposed;
  decide.responses = responses;
  decide.authenticator = bytes_of("not-the-real-authenticator");
  t.mallory.send("bob", MsgType::kDecide, decide.encode());
  t.fed.settle();

  t.expect_no_state_change();
  EXPECT_GE(t.fed.coordinator("bob").violations_detected(), 1u);
  // The run is still active at bob: evidence of blocking (§4.4).
  EXPECT_FALSE(t.bob().active_run_labels().empty());
}

TEST_P(Safety, GenuineDecideInstallsDespiteEarlierForgeryAttempt) {
  SafetyFixture t(GetParam());
  ProposeMsg msg = t.mallory.make_proposal(t.bob(), bytes_of("eventually-ok"));
  t.mallory.send("bob", MsgType::kPropose, msg.encode());
  t.mallory.send("carol", MsgType::kPropose, msg.encode());
  t.fed.settle();
  auto responses = t.mallory.captured_responses();
  ASSERT_EQ(responses.size(), 2u);

  DecideMsg forged;
  forged.proposer = t.mallory.id();
  forged.object = kObj;
  forged.proposed = msg.proposal.proposed;
  forged.responses = responses;
  forged.authenticator = bytes_of("wrong");
  t.mallory.send("bob", MsgType::kDecide, forged.encode());
  t.fed.settle();
  EXPECT_EQ(t.bob_obj.value, bytes_of("genesis"));

  DecideMsg genuine = forged;
  genuine.authenticator = t.mallory.authenticator();
  t.mallory.send("bob", MsgType::kDecide, genuine.encode());
  t.mallory.send("carol", MsgType::kDecide, genuine.encode());
  t.fed.settle();
  EXPECT_EQ(t.bob_obj.value, bytes_of("eventually-ok"));
  EXPECT_EQ(t.carol_obj.value, bytes_of("eventually-ok"));
}

TEST_P(Safety, ImpersonationOfAnotherMemberIsDetected) {
  SafetyFixture t(GetParam());
  // Mallory signs as herself but claims to be bob.
  ProposeMsg msg = t.mallory.make_proposal(t.carol(), bytes_of("evil"));
  msg.proposal.proposer = PartyId{"bob"};
  t.mallory.sign(msg);  // signature is mallory's, field says bob
  t.mallory.send("carol", MsgType::kPropose, msg.encode());
  t.fed.settle();
  // carol: sender (mallory) != proposer field (bob) -> violation, no reply.
  EXPECT_TRUE(t.mallory.captured_responses().empty());
  EXPECT_GE(t.fed.coordinator("carol").violations_detected(), 1u);
  t.expect_no_state_change();
}

TEST_P(Safety, EquivocatingProposalsBothFail) {
  SafetyFixture t(GetParam());
  // Different content to bob and carol under *different* runs: neither can
  // complete because each decide would need both parties' responses to the
  // same tuple.
  ProposeMsg to_bob = t.mallory.make_proposal(t.bob(), bytes_of("for-bob"));
  Bytes bob_auth = t.mallory.authenticator();
  ProposeMsg to_carol =
      t.mallory.make_proposal(t.carol(), bytes_of("for-carol"));
  t.mallory.send("bob", MsgType::kPropose, to_bob.encode());
  t.mallory.send("carol", MsgType::kPropose, to_carol.encode());
  t.fed.settle();
  auto responses = t.mallory.captured_responses();
  ASSERT_EQ(responses.size(), 2u);

  // Try to conclude the bob-run using only bob's response.
  DecideMsg decide;
  decide.proposer = t.mallory.id();
  decide.object = kObj;
  decide.proposed = to_bob.proposal.proposed;
  for (const auto& r : responses) {
    if (r.response.proposed == to_bob.proposal.proposed) {
      decide.responses.push_back(r);
    }
  }
  decide.authenticator = bob_auth;
  t.mallory.send("bob", MsgType::kDecide, decide.encode());
  t.fed.settle();
  t.expect_no_state_change();
  EXPECT_GE(t.fed.coordinator("bob").violations_detected(), 1u);
}

TEST_P(Safety, HonestRunSurvivesArbitration) {
  // Sanity inversion: a fully honest transcript verifies as agreed.
  SafetyFixture t(GetParam());
  ProposeMsg msg = t.mallory.make_proposal(t.bob(), bytes_of("honest"));
  t.mallory.send("bob", MsgType::kPropose, msg.encode());
  t.mallory.send("carol", MsgType::kPropose, msg.encode());
  t.fed.settle();
  auto responses = t.mallory.captured_responses();
  ASSERT_EQ(responses.size(), 2u);
  DecideMsg decide;
  decide.proposer = t.mallory.id();
  decide.object = kObj;
  decide.proposed = msg.proposal.proposed;
  decide.responses = responses;
  decide.authenticator = t.mallory.authenticator();
  t.mallory.send("bob", MsgType::kDecide, decide.encode());
  t.mallory.send("carol", MsgType::kDecide, decide.encode());
  t.fed.settle();
  EXPECT_EQ(t.bob_obj.value, bytes_of("honest"));
  EXPECT_EQ(t.carol_obj.value, bytes_of("honest"));

  EvidenceVerifier verifier = t.fed.make_verifier();
  std::vector<PartyId> recipients{PartyId{"bob"}, PartyId{"carol"}};
  VerifiedRun verdict =
      verifier.verify_state_run({msg, responses, decide}, &recipients);
  EXPECT_TRUE(verdict.evidence_intact);
  EXPECT_TRUE(verdict.agreed);
  EXPECT_TRUE(verdict.violations.empty());
}

TEST_P(Safety, BlockedRunIsVisibleAndResolvable) {
  SafetyFixture t(GetParam());
  // Mallory proposes and then goes silent: no decide ever arrives.
  ProposeMsg msg = t.mallory.make_proposal(t.bob(), bytes_of("abandoned"));
  t.mallory.send("bob", MsgType::kPropose, msg.encode());
  t.mallory.send("carol", MsgType::kPropose, msg.encode());
  t.fed.settle();

  // Both honest parties hold evidence that the run is active and are
  // blocked for further state coordination (they accepted and locked).
  ASSERT_EQ(t.bob().active_run_labels().size(), 1u);
  std::string label = t.bob().active_run_labels()[0];
  t.bob_obj.value = bytes_of("own-change");
  RunHandle h =
      t.fed.coordinator("bob").propagate_new_state(kObj, t.bob_obj.get_state());
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAborted);  // busy
  t.bob_obj.value = bytes_of("genesis");

  // Extra-protocol resolution (§7) unblocks.
  EXPECT_TRUE(t.bob().resolve_blocked_run(label));
  EXPECT_TRUE(t.carol().resolve_blocked_run(label));
  t.bob_obj.value = bytes_of("own-change");
  RunHandle h2 =
      t.fed.coordinator("bob").propagate_new_state(kObj, t.bob_obj.get_state());
  t.fed.settle();
  // Carol still accepts (mallory's hijacked replica never responds, so the
  // run cannot complete — but it must at least not be rejected as busy).
  EXPECT_NE(h2->outcome, RunResult::Outcome::kAborted);
}

// --- Dolev-Yao network intruder (§4.4) ---------------------------------------

/// Flips a byte inside the first `count` DATA payloads matching a minimum
/// size (so ACKs pass through untouched).
class TamperingIntruder : public net::Intruder {
 public:
  explicit TamperingIntruder(std::size_t count) : remaining_(count) {}

  Verdict intercept(const PartyId&, const PartyId&, Bytes& payload,
                    net::SimTime*) override {
    if (remaining_ > 0 && payload.size() > 100) {
      --remaining_;
      payload[payload.size() / 2] ^= 0x01;
      return Verdict::kTamper;
    }
    return Verdict::kPass;
  }

 private:
  std::size_t remaining_;
};

TEST(SafetyIntruder, TransientIntruderTamperingIsMaskedAsLoss) {
  TestRegister alpha_obj, beta_obj;
  Federation fed{{"alpha", "beta"}};
  fed.register_object("alpha", kObj, alpha_obj);
  fed.register_object("beta", kObj, beta_obj);
  fed.bootstrap_object(kObj, {"alpha", "beta"}, bytes_of("genesis"));

  TamperingIntruder intruder(1);  // tampers with exactly one datagram
  fed.network().set_intruder(&intruder);

  alpha_obj.value = bytes_of("target-state-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
  RunHandle h =
      fed.coordinator("alpha").propagate_new_state(kObj, alpha_obj.get_state());
  // The tampered frame fails the transport integrity check, is treated
  // as loss and retransmitted; the run completes with the genuine bytes.
  ASSERT_TRUE(fed.run_until_done(h));
  EXPECT_EQ(h->outcome, RunResult::Outcome::kAgreed);
  fed.settle();
  EXPECT_EQ(beta_obj.value, alpha_obj.value);
  EXPECT_GT(fed.endpoint("alpha").stats().retransmissions +
                fed.endpoint("beta").stats().retransmissions,
            0u);
}

TEST(SafetyIntruder, PersistentIntruderTamperingBlocksButStaysFailSafe) {
  // §4.4: against an intruder who keeps modifying traffic, "the most that
  // can be achieved is the detectable disruption of the protocol" — the
  // run blocks, and no party installs anything.
  Federation::Options options;
  options.reliable.max_retransmits = 10;  // keep the simulation finite
  TestRegister alpha_obj, beta_obj;
  Federation fed{{"alpha", "beta"}, options};
  fed.register_object("alpha", kObj, alpha_obj);
  fed.register_object("beta", kObj, beta_obj);
  fed.bootstrap_object(kObj, {"alpha", "beta"}, bytes_of("genesis"));

  TamperingIntruder intruder(1'000'000);  // tampers with everything big
  fed.network().set_intruder(&intruder);

  alpha_obj.value = bytes_of("never-arrives-xxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
  RunHandle h =
      fed.coordinator("alpha").propagate_new_state(kObj, alpha_obj.get_state());
  fed.settle();
  EXPECT_FALSE(h->done());  // detectably blocked
  EXPECT_FALSE(
      fed.coordinator("alpha").replica(kObj).active_run_labels().empty());
  // Fail-safe: no state was installed anywhere.
  EXPECT_EQ(beta_obj.value, bytes_of("genesis"));
  EXPECT_EQ(fed.coordinator("beta").replica(kObj).agreed_tuple().sequence, 0u);
}

/// Records one copy of every datagram and re-injects each once.
class ReplayingIntruder : public net::Intruder {
 public:
  explicit ReplayingIntruder(net::SimNetwork& network) : network_(network) {}

  Verdict intercept(const PartyId& from, const PartyId& to, Bytes& payload,
                    net::SimTime*) override {
    if (!replaying_) {
      recorded_.push_back({from, to, payload});
    }
    return Verdict::kPass;
  }

  void replay_all() {
    replaying_ = true;
    for (const auto& [from, to, payload] : recorded_) {
      network_.inject(from, to, payload, /*delay=*/1'000);
    }
  }

 private:
  struct Recorded {
    PartyId from;
    PartyId to;
    Bytes payload;
  };
  net::SimNetwork& network_;
  std::vector<Recorded> recorded_;
  bool replaying_ = false;
};

TEST(SafetyIntruder, IntruderReplayIsMaskedByOnceOnlyDelivery) {
  TestRegister alpha_obj, beta_obj;
  Federation fed{{"alpha", "beta"}};
  fed.register_object("alpha", kObj, alpha_obj);
  fed.register_object("beta", kObj, beta_obj);
  fed.bootstrap_object(kObj, {"alpha", "beta"}, bytes_of("genesis"));

  ReplayingIntruder intruder(fed.network());
  fed.network().set_intruder(&intruder);

  alpha_obj.value = bytes_of("v1");
  RunHandle h =
      fed.coordinator("alpha").propagate_new_state(kObj, alpha_obj.get_state());
  ASSERT_TRUE(fed.run_until_done(h));
  fed.settle();
  ASSERT_EQ(h->outcome, RunResult::Outcome::kAgreed);

  std::uint64_t violations_before =
      fed.coordinator("alpha").violations_detected() +
      fed.coordinator("beta").violations_detected();
  intruder.replay_all();
  fed.settle();

  // The dedup layer suppressed every replayed datagram: no protocol-level
  // replays reached the replicas, no new violations, state unchanged.
  EXPECT_EQ(fed.coordinator("alpha").violations_detected() +
                fed.coordinator("beta").violations_detected(),
            violations_before);
  EXPECT_GT(fed.endpoint("beta").stats().duplicates_suppressed +
                fed.endpoint("alpha").stats().duplicates_suppressed,
            0u);
  EXPECT_EQ(beta_obj.value, bytes_of("v1"));
}

B2B_INSTANTIATE_RUNTIME_SUITE(Safety);

}  // namespace
}  // namespace b2b::core
