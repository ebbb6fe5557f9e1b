"""Tests for the lossy-delivery transport subsystem (``repro.net``).

Covers, per the R8 acceptance criteria:

* seeded determinism of every channel model (identical loss/delay
  traces for identical seeds, i.i.d. and Gilbert–Elliott alike);
* FEC recover-vs-reference equivalence on randomized parity groups;
* packetizer wire-format round trips, CRC corruption handling, and the
  batched-vs-reference serialization pin;
* decoder error concealment (video previous-frame copy, audio frame
  repeat/mute) on truncated streams;
* the end-to-end lossy round trip: every registered scenario decodes
  without exception at 5% i.i.d. and bursty loss, and with FEC enabled
  the recovered streams are bit-identical to the clean channel.
"""

import json
import zlib

import numpy as np
import pytest

from repro.audio.encoder import AudioDecoder, AudioEncoder, AudioEncoderConfig
from repro.net import (
    Channel,
    DeliveryCostModel,
    DeliveryPipe,
    GilbertElliott,
    IIDLoss,
    JitterBuffer,
    Packet,
    add_parity,
    attach_delivery,
    crc32_reference,
    deinterleave,
    interleave,
    interleave_indices,
    make_channel,
    packet_to_wire,
    packetize,
    packets_to_wire,
    packets_to_wire_reference,
    parse_packet,
    reassemble,
    recover_group,
    recover_packets,
    xor_parity,
    xor_parity_reference,
)
from repro.net.channel import (
    serialization_times,
    serialization_times_reference,
)
from repro.net.fec import interleave_indices_reference, recover_group_reference
from repro.runtime import SegmentCache, StreamEngine
from repro.runtime.run import main as cli_main
from repro.runtime.scenarios import REGISTRY
from repro.support.ipstack import (
    LossyLink,
    PointToPointNetwork,
    ones_complement_checksum,
    ones_complement_checksum_reference,
    udp_transaction,
)
from repro.video.decoder import VideoDecoder
from repro.video.encoder import EncoderConfig, VideoEncoder
from repro.workloads.audio_gen import music_like
from repro.workloads.video_gen import moving_blocks_sequence

from strategies.scenario_pin import small_sessions


def _random_bytes(rng, n):
    return rng.integers(0, 256, n, dtype=np.uint8).tobytes()


# ------------------------------------------------------ satellite: checksum


class TestChecksumVectorization:
    def test_matches_reference_on_random_strings(self):
        rng = np.random.default_rng(11)
        for n in (0, 1, 2, 3, 7, 64, 255, 1000, 1501):
            data = _random_bytes(rng, n)
            assert ones_complement_checksum(data) == \
                ones_complement_checksum_reference(data), n

    def test_edge_patterns(self):
        for data in (b"", b"\x00", b"\xff" * 40, b"\xff\xff" * 1000,
                     b"\x00\x01" * 33 + b"\x7f"):
            assert ones_complement_checksum(data) == \
                ones_complement_checksum_reference(data)

    def test_header_validation_still_works(self):
        from repro.support.ipstack import IPv4Packet

        packet = IPv4Packet(src=1, dst=2, protocol=17, payload=b"hi")
        assert IPv4Packet.from_bytes(packet.to_bytes()).payload == b"hi"


# ----------------------------------------------- satellite: explicit RNG


class TestExplicitLinkRng:
    def test_same_seed_same_drop_pattern(self):
        a = LossyLink(0.4, seed=9)
        b = LossyLink(0.4, seed=9)
        for t in range(200):
            a.send(b"x", t)
            b.send(b"x", t)
        assert a.dropped == b.dropped and a.dropped > 0

    def test_explicit_generator_wins_over_seed(self):
        a = LossyLink(0.4, seed=1, rng=np.random.default_rng(77))
        b = LossyLink(0.4, seed=2, rng=np.random.default_rng(77))
        for t in range(200):
            a.send(b"x", t)
            b.send(b"x", t)
        assert a.dropped == b.dropped

    def test_point_to_point_reproducible_run_to_run(self):
        def run(seed):
            net = PointToPointNetwork(loss_rate=0.2, seed=seed)
            net.client.connect()
            net.client.send(b"A" * 500)
            net.client.close()
            return net.run()

        first, second = run(5), run(5)
        assert first == second
        assert first.client_retransmissions == second.client_retransmissions

    def test_point_to_point_explicit_rng(self):
        def run():
            net = PointToPointNetwork(
                loss_rate=0.2, rng=np.random.default_rng(123)
            )
            net.client.connect()
            net.client.send(b"B" * 300)
            net.client.close()
            return net.run()

        assert run() == run()

    def test_udp_transaction_with_rng(self):
        first = udp_transaction(
            b"req", b"resp", loss_rate=0.3, rng=np.random.default_rng(4)
        )
        second = udp_transaction(
            b"req", b"resp", loss_rate=0.3, rng=np.random.default_rng(4)
        )
        assert first == second


# ------------------------------------------------------------- packetizer


class TestPacketizer:
    def test_roundtrip_various_mtus(self):
        rng = np.random.default_rng(2)
        for n, mtu in [(1, 64), (63, 64), (64, 64), (65, 64), (1000, 96),
                       (5000, 256), (10, 1500)]:
            data = _random_bytes(rng, n)
            packets = packetize(3, 7, data, mtu=mtu)
            assert packets[0].frag_count == len(packets) == -(-n // mtu)
            parsed = [parse_packet(w) for w in packets_to_wire(packets)]
            assert all(p is not None for p in parsed)
            rebuilt = reassemble(parsed)
            assert rebuilt.intact and rebuilt.data == data

    def test_empty_segment_still_announces_itself(self):
        packets = packetize(1, 0, b"", mtu=64)
        assert len(packets) == 1 and packets[0].frag_count == 1
        rebuilt = reassemble(
            [parse_packet(packet_to_wire(packets[0]))]
        )
        assert rebuilt.intact and rebuilt.data == b""

    def test_batched_wire_equals_reference(self):
        rng = np.random.default_rng(8)
        packets = []
        for segment in range(5):
            packets += packetize(
                segment % 3, segment,
                _random_bytes(rng, int(rng.integers(1, 900))),
                mtu=128, seq_start=segment * 100,
            )
        assert packets_to_wire(packets) == packets_to_wire_reference(packets)

    def test_crc32_reference_matches_zlib(self):
        rng = np.random.default_rng(1)
        for n in (0, 1, 17, 300):
            data = _random_bytes(rng, n)
            assert crc32_reference(data) == zlib.crc32(data) & 0xFFFFFFFF

    def test_corruption_is_loss(self):
        wire = packet_to_wire(packetize(0, 0, b"payload bytes", mtu=64)[0])
        assert parse_packet(wire) is not None
        for position in (0, 5, 21, len(wire) - 1):
            damaged = bytearray(wire)
            damaged[position] ^= 0x40
            assert parse_packet(bytes(damaged)) is None, position
        assert parse_packet(wire[:-1]) is None  # truncated
        assert parse_packet(b"") is None

    def test_out_of_range_identity_fields_rejected(self):
        # Regression: flags/stream_id/seq were unvalidated, so an
        # out-of-range value died inside write_many's batch-level error
        # (no field named) on the bulk path and with a *different*
        # error on the scalar reference path.  Both paths must now
        # raise the same per-field ValueError.
        bad = [
            (dict(flags=0x10), "flags"),
            (dict(stream_id=0x1_0000), "stream id"),
            (dict(stream_id=-1), "stream id"),
            (dict(seq=1 << 32), "sequence number"),
        ]
        for overrides, needle in bad:
            fields = dict(
                stream_id=1, seq=2, segment=3, frag=0, frag_count=1,
                payload=b"x",
            )
            fields.update(overrides)
            packet = Packet(**fields)
            with pytest.raises(ValueError, match=needle) as bulk:
                packets_to_wire([packet])
            with pytest.raises(ValueError, match=needle) as scalar:
                packets_to_wire_reference([packet])
            with pytest.raises(ValueError, match=needle):
                packet_to_wire(packet)
            assert str(bulk.value) == str(scalar.value)

    def test_reassembly_truncates_at_first_gap(self):
        data = bytes(range(200)) * 3
        packets = packetize(0, 0, data, mtu=100)
        missing_frag = 2
        survivors = [p for p in packets if p.frag != missing_frag]
        rebuilt = reassemble(survivors)
        assert not rebuilt.intact
        assert rebuilt.truncated_at == missing_frag
        assert rebuilt.data == data[:missing_frag * 100]


# ---------------------------------------------------------------- channels


class TestChannelDeterminism:
    @pytest.mark.parametrize("kind", ["iid", "gilbert"])
    def test_identical_traces_for_identical_seeds(self, kind):
        sizes = np.random.default_rng(0).integers(40, 400, 300)
        a = make_channel(kind, 0.1, seed=21)
        b = make_channel(kind, 0.1, seed=21)
        ta, tb = a.transmit(sizes, 0.0), b.transmit(sizes, 0.0)
        assert np.array_equal(ta.lost, tb.lost)
        assert np.array_equal(ta.arrival_s, tb.arrival_s)
        # ...and the state carries coherently into the next batch.
        ta2, tb2 = a.transmit(sizes, 1.0), b.transmit(sizes, 1.0)
        assert np.array_equal(ta2.lost, tb2.lost)
        assert np.array_equal(ta2.arrival_s, tb2.arrival_s)

    @pytest.mark.parametrize("kind", ["iid", "gilbert"])
    def test_different_seeds_differ(self, kind):
        sizes = np.full(400, 100)
        ta = make_channel(kind, 0.2, seed=1).transmit(sizes, 0.0)
        tb = make_channel(kind, 0.2, seed=2).transmit(sizes, 0.0)
        assert not np.array_equal(ta.lost, tb.lost)

    def test_gilbert_marginal_rate_and_burstiness(self):
        n = 20_000
        iid = IIDLoss(0.1, rng=np.random.default_rng(3))
        gilbert = GilbertElliott.from_loss_rate(
            0.1, mean_burst=5.0, rng=np.random.default_rng(3)
        )
        assert gilbert.expected_loss() == pytest.approx(0.1)
        lost_iid = iid.sample(n)
        lost_ge = gilbert.sample(n)
        assert abs(lost_ge.mean() - 0.1) < 0.02
        assert abs(lost_iid.mean() - 0.1) < 0.02

        def mean_burst(mask):
            runs, current = [], 0
            for value in mask:
                if value:
                    current += 1
                elif current:
                    runs.append(current)
                    current = 0
            if current:
                runs.append(current)
            return float(np.mean(runs))

        # Same marginal loss, very different clustering.
        assert mean_burst(lost_ge) > 2.0 * mean_burst(lost_iid)

    def test_serialization_matches_reference(self):
        rng = np.random.default_rng(5)
        sizes = rng.integers(40, 1500, 200)
        send = np.sort(rng.random(200) * 0.1)
        assert np.allclose(
            serialization_times(sizes, send, 2e6),
            serialization_times_reference(sizes, send, 2e6),
        )

    def test_bandwidth_cap_backlogs_the_link(self):
        channel = Channel(bandwidth_bps=8_000, base_delay_s=0.0, jitter_s=0.0)
        trace = channel.transmit(np.full(10, 100), 0.0)  # 100 ms each
        assert np.allclose(np.diff(trace.tx_done_s), 0.1)
        # The next batch queues behind the previous one's tail.
        trace2 = channel.transmit(np.full(1, 100), 0.0)
        assert trace2.tx_done_s[0] == pytest.approx(1.1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            IIDLoss(1.0)
        with pytest.raises(ValueError):
            GilbertElliott(0.5, 0.0)
        with pytest.raises(ValueError):
            make_channel("carrier-pigeon", 0.1)
        with pytest.raises(ValueError):
            Channel(bandwidth_bps=0.0)

    def test_unreachable_burst_loss_rate_raises(self):
        # mean_burst=4 tops out at 0.8 marginal loss; capping silently
        # would simulate a lighter channel than requested.
        with pytest.raises(ValueError, match="unreachable"):
            GilbertElliott.from_loss_rate(0.9, mean_burst=4.0)
        assert GilbertElliott.from_loss_rate(
            0.79, mean_burst=4.0
        ).expected_loss() == pytest.approx(0.79)


# --------------------------------------------------------------------- FEC


class TestFec:
    def test_xor_parity_matches_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            blobs = [
                _random_bytes(rng, int(rng.integers(1, 200)))
                for _ in range(int(rng.integers(1, 8)))
            ]
            assert xor_parity(blobs) == xor_parity_reference(blobs)

    def test_recovery_on_randomized_parity_groups(self):
        """Drop any single packet of any group: recovery is bit-exact,
        batched and reference paths agreeing packet for packet."""
        rng = np.random.default_rng(13)
        for trial in range(12):
            group = int(rng.integers(1, 6))
            data = _random_bytes(rng, int(rng.integers(200, 3000)))
            fragments = packetize(2, trial, data, mtu=int(rng.integers(50, 300)))
            wire = add_parity(fragments, group, seq_start=trial * 1000)
            parities = [p for p in wire if p.is_parity]
            assert len(parities) == -(-len(fragments) // group)
            victim = wire[int(rng.integers(0, len(wire)))]
            survivors = [p for p in wire if p.seq != victim.seq]
            present = {p.seq: p for p in survivors if not p.is_parity}
            for parity in parities:
                fast = recover_group(parity, present)
                slow = recover_group_reference(parity, present)
                assert fast == slow
            rebuilt_all, recovered = recover_packets(survivors)
            if victim.is_parity:
                assert recovered == 0
            else:
                assert recovered == 1
            rebuilt = reassemble(
                [p for p in rebuilt_all if p.segment == trial]
            )
            assert rebuilt.intact and rebuilt.data == data

    def test_two_losses_in_a_group_are_unrecoverable(self):
        data = bytes(range(256)) * 4
        wire = add_parity(packetize(0, 0, data, mtu=64), 4)
        # Drop two data packets of the first group (seqs 0..3, parity 4).
        survivors = [p for p in wire if p.seq not in (1, 2)]
        rebuilt_all, recovered = recover_packets(survivors)
        assert recovered == 0
        assert not reassemble(rebuilt_all).intact

    def test_interleave_indices_match_reference_and_invert(self):
        for n in (0, 1, 2, 7, 12, 13, 40):
            for depth in (1, 2, 3, 5, 8):
                assert np.array_equal(
                    interleave_indices(n, depth),
                    interleave_indices_reference(n, depth),
                )
                items = list(range(n))
                assert deinterleave(interleave(items, depth), depth) == items

    def test_interleaving_spreads_bursts_across_groups(self):
        # A burst of `depth` consecutive wire slots must land in `depth`
        # distinct parity groups, each then recoverable.
        data = bytes(range(200)) * 8
        depth = 4
        wire = add_parity(packetize(0, 0, data, mtu=100), 3)
        ordered = interleave(wire, depth)
        for start in range(0, len(ordered) - depth):
            burst = ordered[start:start + depth]
            groups = {p.seq // 4 for p in burst}
            assert len(groups) == depth


# ------------------------------------------------------------ jitterbuffer


class TestJitterBuffer:
    def _packet(self, seq):
        return Packet(
            stream_id=0, seq=seq, segment=0, frag=seq, frag_count=10,
            payload=b"x",
        )

    def test_reorder_dedup_late_drop(self):
        buffer = JitterBuffer(playout_delay_s=1.0)
        packets = [self._packet(s) for s in (2, 0, 1, 1, 3)]
        arrivals = [0.1, 0.2, 0.3, 0.4, 5.0]  # 3 arrives past deadline
        accepted, stats = buffer.admit(packets, arrivals, deadline_s=1.0)
        assert [p.seq for p in accepted] == [0, 1, 2]
        assert stats.late == 1
        assert stats.duplicates == 1
        assert stats.reordered == 2  # 0 and 1 arrived behind 2
        assert buffer.stats.received == 5

    def test_rejects_mismatched_inputs(self):
        with pytest.raises(ValueError):
            JitterBuffer().admit([self._packet(0)], [0.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            JitterBuffer(playout_delay_s=-1.0)


# ------------------------------------------------------------ the pipeline


class TestDeliveryPipe:
    def test_lossless_channel_is_bit_transparent(self):
        rng = np.random.default_rng(0)
        pipe = DeliveryPipe(
            make_channel("iid", 0.0, seed=0), mtu=100, fec_group=3,
            interleave_depth=2,
        )
        for index in range(4):
            data = _random_bytes(rng, int(rng.integers(300, 2000)))
            delivered = pipe.transport(data, release_s=index * 0.1)
            assert delivered.intact and delivered.data == data
            assert delivered.packets_lost == 0
            assert delivered.index == index
            assert delivered.virtual_cost_s > 0.0

    def test_lossless_backlog_never_goes_late(self):
        # Regression: unrated sessions release at 0.0 forever, so the
        # playout deadline must anchor to each segment's transmission
        # start, not the release — otherwise the FIFO backlog marches
        # every later segment past a fixed deadline at zero loss.
        pipe = DeliveryPipe(
            make_channel("iid", 0.0, seed=0, jitter_s=0.0), mtu=256,
        )
        data = bytes(range(256)) * 64  # ~16 ms of wire time per segment
        for _ in range(40):  # cumulative backlog far beyond the 250 ms budget
            delivered = pipe.transport(data, release_s=0.0)
            assert delivered.packets_late == 0
            assert delivered.intact and delivered.data == data

    def test_rejects_mtu_beyond_length_field(self):
        from repro.net.delivery import MAX_MTU

        channel = make_channel("iid", 0.0, seed=0)
        with pytest.raises(ValueError, match="mtu"):
            DeliveryPipe(channel, mtu=MAX_MTU + 1)
        DeliveryPipe(channel, mtu=MAX_MTU)  # boundary is fine

    def test_seeded_pipes_replay_identically(self):
        def run():
            pipe = DeliveryPipe(
                make_channel("gilbert", 0.2, seed=6), mtu=80, fec_group=2
            )
            data = bytes(range(256)) * 8
            return [
                (d.intact, d.data, d.packets_lost, d.packets_recovered)
                for d in (pipe.transport(data, 0.0), pipe.transport(data, 0.5))
            ]

        assert run() == run()

    def test_delivered_data_is_always_a_clean_prefix(self):
        data = bytes(range(256)) * 16
        pipe = DeliveryPipe(make_channel("gilbert", 0.3, seed=10), mtu=64)
        for _ in range(6):
            delivered = pipe.transport(data, 0.0)
            assert data.startswith(delivered.data)

    def test_fec_recovers_what_the_bare_channel_loses(self):
        data = bytes(range(256)) * 16

        def damaged_segments(fec_group, interleave_depth):
            pipe = DeliveryPipe(
                make_channel("iid", 0.05, seed=40),
                mtu=64,
                fec_group=fec_group,
                interleave_depth=interleave_depth,
            )
            out = [pipe.transport(data, 0.0) for _ in range(10)]
            return sum(1 for d in out if not d.intact), \
                sum(d.packets_recovered for d in out)

        bare_damage, _ = damaged_segments(0, 1)
        fec_damage, recovered = damaged_segments(2, 2)
        assert bare_damage > 0
        assert recovered > 0
        assert fec_damage < bare_damage

    def test_tight_playout_deadline_turns_arrivals_late(self):
        data = bytes(range(256)) * 8
        channel = Channel(
            loss=IIDLoss(0.0, rng=np.random.default_rng(0)),
            bandwidth_bps=64_000,  # slow: ~86 ms per 690-byte packet
            base_delay_s=0.05,
            jitter_s=0.0,
        )
        pipe = DeliveryPipe(channel, mtu=668, playout_delay_s=0.1)
        delivered = pipe.transport(data, release_s=0.0)
        assert delivered.packets_late > 0
        assert not delivered.intact

    def test_cost_model_from_platform(self):
        from repro.mpsoc.presets import wireless_surveillance_soc

        platform = wireless_surveillance_soc()
        model = DeliveryCostModel.from_platform(platform)
        assert model.wire is platform.interconnect.spec
        sizes = [100, 200, 300]
        assert model.batch_cost_s(sizes) == pytest.approx(
            sum(model.packet_cost_s(s) for s in sizes)
        )


# ------------------------------------------------------- decoder concealment


class TestVideoConcealment:
    def _coded(self):
        frames = [
            np.floor(f) for f in moving_blocks_sequence(
                num_frames=8, height=48, width=64, seed=1
            )
        ]
        return VideoEncoder(
            EncoderConfig(gop_size=8, search_algorithm="three_step")
        ).encode(frames).data

    def test_truncation_conceals_instead_of_raising(self):
        data = self._coded()
        clean = VideoDecoder().decode(data)
        for cut in (11, 25, 60, len(data) // 2, len(data) - 3):
            decoded = VideoDecoder().decode(data[:cut], conceal=True)
            assert len(decoded.frames) == len(clean.frames)
            assert decoded.frame_types.count("C") == decoded.concealed
            good = len(clean.frames) - decoded.concealed
            for a, b in zip(clean.frames[:good], decoded.frames[:good]):
                assert np.array_equal(a.y, b.y)
            if decoded.concealed:
                # Previous-frame copy: the concealed tail repeats the
                # last good frame (mid-grey when nothing decoded).
                tail = decoded.frames[good]
                expected = (
                    decoded.frames[good - 1].y if good
                    else np.full_like(tail.y, 128.0)
                )
                assert np.array_equal(tail.y, expected)
                with pytest.raises((EOFError, ValueError)):
                    VideoDecoder().decode(data[:cut])

    def test_intact_stream_unchanged_by_conceal_flag(self):
        data = self._coded()
        plain = VideoDecoder().decode(data)
        concealing = VideoDecoder().decode(data, conceal=True)
        assert concealing.concealed == 0
        assert all(
            np.array_equal(a.y, b.y)
            for a, b in zip(plain.frames, concealing.frames)
        )


class TestAudioConcealment:
    def _coded(self):
        pcm = music_like(duration=0.3, seed=4)
        return AudioEncoder(
            AudioEncoderConfig(bitrate=96_000)
        ).encode(pcm).data

    def test_truncation_conceals_instead_of_raising(self):
        data = self._coded()
        clean = AudioDecoder().decode(data)
        for cut in (19, 40, len(data) // 2, len(data) - 2):
            decoded = AudioDecoder().decode(data[:cut], conceal=True)
            assert decoded.pcm.size == clean.pcm.size
            assert decoded.concealed > 0 or cut >= len(data) - 2
            if decoded.concealed:
                with pytest.raises((EOFError, ValueError)):
                    AudioDecoder().decode(data[:cut])

    def test_intact_stream_unchanged_by_conceal_flag(self):
        data = self._coded()
        plain = AudioDecoder().decode(data)
        concealing = AudioDecoder().decode(data, conceal=True)
        assert concealing.concealed == 0
        assert np.array_equal(plain.pcm, concealing.pcm)


# ------------------------------------------------------- end-to-end (R8)


def _lossy_report(scenario_name, kind, fec=0, seed=0, mtu=256,
                  interleave=1, loss=0.05):
    sessions = small_sessions(scenario_name)
    attach_delivery(
        sessions, kind=kind, loss_rate=loss, fec_group=fec, mtu=mtu,
        interleave_depth=interleave, seed=seed,
    )
    engine = StreamEngine(sessions, cache=SegmentCache(64))
    return sessions, engine.run()


class TestLossyEndToEnd:
    @pytest.mark.parametrize("kind", ["iid", "gilbert"])
    @pytest.mark.parametrize(
        "scenario_name", sorted(s.name for s in REGISTRY)
    )
    def test_every_scenario_survives_5pct_loss(self, scenario_name, kind):
        """R8 acceptance: no exception, sane stats, JSON-serializable."""
        sessions, report = _lossy_report(scenario_name, kind, seed=1)
        delivery = report.delivery
        assert delivery is not None
        assert delivery["packets_sent"] > 0
        assert delivery["segments"] == sum(
            len(s.delivery_log) for s in sessions
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["delivery"]["packets_sent"] == \
            delivery["packets_sent"]
        # Damaged segments (if any this seed) carry a PSNR verdict.
        for session in sessions:
            for delivered in session.delivery_log:
                assert delivered.data is not None
                if not delivered.intact:
                    assert delivered.psnr_db is not None
                    assert 0.0 < delivered.psnr_db <= 99.0

    @pytest.mark.parametrize(
        "scenario_name", sorted(s.name for s in REGISTRY)
    )
    def test_fec_recovers_bit_identical_streams(self, scenario_name):
        """R8 acceptance: with FEC enabled, the delivered streams are
        bit-identical to the clean channel on every scenario.

        Single-parity FEC cannot survive a double loss inside one
        group, so the test scans a handful of seeds for one where every
        group stays recoverable (large MTU keeps groups per segment
        low) — then demands exact end-to-end equality on it.
        """
        for seed in range(8):
            sessions, report = _lossy_report(
                scenario_name, "iid", fec=2, seed=seed, mtu=1024,
                interleave=2,
            )
            delivery = report.delivery
            if delivery["segments_intact"] != delivery["segments"]:
                continue
            for session in sessions:
                sent = (
                    list(session.coded_segments)
                    if session.delivery_point == "input"
                    else [seg.data for seg in session.segments]
                )
                for delivered, clean in zip(session.delivery_log, sent):
                    assert delivered.intact
                    assert delivered.data == clean
                    assert delivered.concealed_frames == 0
            assert delivery["concealed_frames"] == 0
            return
        pytest.fail(
            f"no seed in 0..7 fully recovered {scenario_name} at 5% loss"
        )

    def test_losses_actually_happen_and_are_concealed(self):
        """At least one scenario/seed pair must show real damage, or the
        sweep above proves nothing."""
        sessions, report = _lossy_report(
            "set_top_box", "gilbert", seed=2, mtu=128
        )
        delivery = report.delivery
        assert delivery["packets_lost"] > 0
        assert delivery["segments_intact"] < delivery["segments"]
        assert delivery["concealed_frames"] > 0
        assert delivery["psnr_under_loss_db"] is not None
        # Every session still produced its full frame count.
        for session in sessions:
            assert session.frames_done == 8

    def test_delivery_cost_advances_the_virtual_clock(self):
        scenario = REGISTRY.get("set_top_box")
        clean_sessions = scenario.sessions(frames=8)
        clean = StreamEngine(clean_sessions).run()
        sessions, lossy = _lossy_report("set_top_box", "iid", loss=0.0)
        assert lossy.delivery["virtual_cost_s"] > 0.0
        assert lossy.virtual_makespan_s == pytest.approx(
            clean.virtual_makespan_s + lossy.delivery["virtual_cost_s"]
        )

    def test_analysis_sessions_cannot_carry_a_pipe(self):
        from repro.runtime.session import AnalysisSession

        session = AnalysisSession("watch", [np.zeros((16, 16))])
        with pytest.raises(ValueError):
            session.attach_delivery(object())


class TestLossyCli:
    def test_channel_flags_smoke(self, capsys):
        code = cli_main([
            "set_top_box", "--set", "frames=8", "--channel", "iid",
            "--loss", "0.05", "--fec", "2", "--net-seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "delivery:" in out

    def test_transport_flags_require_channel(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["set_top_box", "--fec", "2"])
        assert info.value.code == 2
        assert "--channel" in capsys.readouterr().err

    def test_builtin_scenarios_price_delivery_with_their_soc(self):
        from repro.mpsoc.presets import wireless_surveillance_soc

        sessions = REGISTRY.get("wireless_surveillance").sessions(
            cameras=1, frames=8
        )
        spec = sessions[0].delivery.cost_model.wire
        assert spec == wireless_surveillance_soc().interconnect.spec

    def test_channel_json_carries_delivery(self, capsys):
        code = cli_main([
            "wireless_surveillance", "--set", "frames=8",
            "--set", "cameras=2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delivery"]["packets_sent"] > 0
        for session in payload["sessions"]:
            if session["kind"] == "video_encode":
                assert session["delivery"] is not None
